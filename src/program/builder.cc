#include "program/builder.hh"

#include "util/logging.hh"

namespace loopspec
{

ProgramBuilder::ProgramBuilder(std::string name, uint64_t data_words)
    : progName(std::move(name)), dataWords(data_words)
{
}

Label
ProgramBuilder::newLabel()
{
    Label l{static_cast<uint32_t>(labelAddrs.size())};
    labelAddrs.push_back(UINT32_MAX);
    return l;
}

void
ProgramBuilder::bind(Label label)
{
    LOOPSPEC_ASSERT(label.valid() && label.id < labelAddrs.size());
    LOOPSPEC_ASSERT(labelAddrs[label.id] == UINT32_MAX,
                    "label bound twice");
    labelAddrs[label.id] = currentAddr();
}

Label
ProgramBuilder::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

void
ProgramBuilder::beginFunction(const std::string &fn)
{
    if (functions.count(fn))
        fatal("function '%s' defined twice in %s", fn.c_str(),
              progName.c_str());
    functions[fn] = currentAddr();
}

Instr &
ProgramBuilder::emit(Opcode op)
{
    LOOPSPEC_ASSERT(!built, "emit after build()");
    code.emplace_back();
    code.back().op = op;
    return code.back();
}

ProgramBuilder &
ProgramBuilder::alu3(Opcode op, Reg rd, Reg a, Reg b)
{
    Instr &in = emit(op);
    in.rd = rd.idx;
    in.rs1 = a.idx;
    in.rs2 = b.idx;
    return *this;
}

ProgramBuilder &
ProgramBuilder::alui(Opcode op, Reg rd, Reg a, int64_t imm)
{
    Instr &in = emit(op);
    in.rd = rd.idx;
    in.rs1 = a.idx;
    in.imm = imm;
    return *this;
}

ProgramBuilder &
ProgramBuilder::branch(Opcode op, Reg a, Reg b, Label t)
{
    Instr &in = emit(op);
    in.rs1 = a.idx;
    in.rs2 = b.idx;
    fixups.push_back({code.size() - 1, t.id, "", false});
    return *this;
}

ProgramBuilder &ProgramBuilder::nop() { emit(Opcode::Nop); return *this; }
ProgramBuilder &ProgramBuilder::halt() { emit(Opcode::Halt); return *this; }

ProgramBuilder &
ProgramBuilder::add(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Add, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::sub(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Sub, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::mul(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Mul, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::div(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Div, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::rem(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Rem, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::and_(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::And, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::or_(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Or, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::xor_(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Xor, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::shl(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Shl, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::shr(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Shr, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::slt(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Slt, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::sle(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Sle, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::seq(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Seq, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::sne(Reg rd, Reg a, Reg b)
{
    return alu3(Opcode::Sne, rd, a, b);
}

ProgramBuilder &
ProgramBuilder::addi(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Addi, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::muli(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Muli, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::andi(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Andi, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::ori(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Ori, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::xori(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Xori, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::shli(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Shli, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::shri(Reg rd, Reg a, int64_t imm)
{
    return alui(Opcode::Shri, rd, a, imm);
}

ProgramBuilder &
ProgramBuilder::li(Reg rd, int64_t imm)
{
    Instr &in = emit(Opcode::Li);
    in.rd = rd.idx;
    in.imm = imm;
    return *this;
}

ProgramBuilder &
ProgramBuilder::mov(Reg rd, Reg a)
{
    Instr &in = emit(Opcode::Mov);
    in.rd = rd.idx;
    in.rs1 = a.idx;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ld(Reg rd, Reg a, int64_t imm)
{
    Instr &in = emit(Opcode::Ld);
    in.rd = rd.idx;
    in.rs1 = a.idx;
    in.imm = imm;
    return *this;
}

ProgramBuilder &
ProgramBuilder::st(Reg v, Reg a, int64_t imm)
{
    Instr &in = emit(Opcode::St);
    in.rs2 = v.idx;
    in.rs1 = a.idx;
    in.imm = imm;
    return *this;
}

ProgramBuilder &
ProgramBuilder::beq(Reg a, Reg b, Label t)
{
    return branch(Opcode::Beq, a, b, t);
}

ProgramBuilder &
ProgramBuilder::bne(Reg a, Reg b, Label t)
{
    return branch(Opcode::Bne, a, b, t);
}

ProgramBuilder &
ProgramBuilder::blt(Reg a, Reg b, Label t)
{
    return branch(Opcode::Blt, a, b, t);
}

ProgramBuilder &
ProgramBuilder::bge(Reg a, Reg b, Label t)
{
    return branch(Opcode::Bge, a, b, t);
}

ProgramBuilder &
ProgramBuilder::ble(Reg a, Reg b, Label t)
{
    return branch(Opcode::Ble, a, b, t);
}

ProgramBuilder &
ProgramBuilder::bgt(Reg a, Reg b, Label t)
{
    return branch(Opcode::Bgt, a, b, t);
}

ProgramBuilder &
ProgramBuilder::jmp(Label t)
{
    emit(Opcode::Jmp);
    fixups.push_back({code.size() - 1, t.id, "", false});
    return *this;
}

ProgramBuilder &
ProgramBuilder::jmpInd(Reg a)
{
    Instr &in = emit(Opcode::JmpInd);
    in.rs1 = a.idx;
    return *this;
}

ProgramBuilder &
ProgramBuilder::call(const std::string &fn)
{
    emit(Opcode::Call);
    fixups.push_back({code.size() - 1, UINT32_MAX, fn, false});
    return *this;
}

ProgramBuilder &
ProgramBuilder::callInd(Reg a)
{
    Instr &in = emit(Opcode::CallInd);
    in.rs1 = a.idx;
    return *this;
}

ProgramBuilder &
ProgramBuilder::ret()
{
    emit(Opcode::Ret);
    return *this;
}

ProgramBuilder &
ProgramBuilder::liLabel(Reg rd, Label label)
{
    Instr &in = emit(Opcode::Li);
    in.rd = rd.idx;
    fixups.push_back({code.size() - 1, label.id, "", true});
    return *this;
}

ProgramBuilder &
ProgramBuilder::liFunc(Reg rd, const std::string &fn)
{
    Instr &in = emit(Opcode::Li);
    in.rd = rd.idx;
    fixups.push_back({code.size() - 1, UINT32_MAX, fn, true});
    return *this;
}

void
ProgramBuilder::countedLoop(Reg idx, Reg bound, const BodyFn &body,
                            int64_t step)
{
    LoopCtx ctx{newLabel(), newLabel()};
    bind(ctx.head);
    body(ctx);
    addi(idx, idx, step);
    blt(idx, bound, ctx.head); // backward closing branch
    bind(ctx.exit);
}

void
ProgramBuilder::whileLoop(const CondFn &cond, const BodyFn &body)
{
    LoopCtx ctx{newLabel(), newLabel()};
    bind(ctx.head);
    cond(ctx.exit); // emits exit branch(es)
    body(ctx);
    jmp(ctx.head); // backward closing jump
    bind(ctx.exit);
}

void
ProgramBuilder::ifElse(const CondFn &cond, const EmitFn &then_part,
                       const EmitFn &else_part)
{
    Label else_l = newLabel();
    Label end_l = newLabel();
    cond(else_l); // branch to else_l when condition fails
    then_part();
    if (else_part) {
        jmp(end_l);
        bind(else_l);
        else_part();
        bind(end_l);
    } else {
        bind(else_l);
        // end_l intentionally unused; bind to keep the invariant that all
        // created labels resolve.
        bind(end_l);
    }
}

Program
ProgramBuilder::build(const std::string &entry_function)
{
    LOOPSPEC_ASSERT(!built, "build() called twice");
    built = true;

    Program p;
    p.name = progName;
    p.dataWords = dataWords;
    p.code = std::move(code);
    p.functions = functions;

    for (const Fixup &fx : fixups) {
        uint32_t addr;
        if (fx.labelId != UINT32_MAX) {
            LOOPSPEC_ASSERT(fx.labelId < labelAddrs.size());
            addr = labelAddrs[fx.labelId];
            if (addr == UINT32_MAX)
                fatal("program %s: unbound label %u", p.name.c_str(),
                      fx.labelId);
        } else {
            auto it = functions.find(fx.funcRef);
            if (it == functions.end())
                fatal("program %s: call to undefined function '%s'",
                      p.name.c_str(), fx.funcRef.c_str());
            addr = it->second;
        }
        Instr &in = p.code[fx.instrIndex];
        if (fx.intoImm)
            in.imm = addr;
        else
            in.target = addr;
    }

    auto it = functions.find(entry_function);
    if (it == functions.end())
        fatal("program %s: no entry function '%s'", p.name.c_str(),
              entry_function.c_str());
    p.entry = it->second;

    p.validate();
    return p;
}

} // namespace loopspec
