/**
 * @file
 * Assembler-style program construction with labels, patching, functions,
 * and structured control-flow helpers (counted loops, while loops,
 * if/else). The synthetic SPEC95-shaped workloads are written against this
 * API; the property-based loop-detector tests also generate random
 * programs with it.
 */

#ifndef LOOPSPEC_PROGRAM_BUILDER_HH
#define LOOPSPEC_PROGRAM_BUILDER_HH

#include <functional>
#include <string>
#include <vector>

#include "program/program.hh"

namespace loopspec
{

/** Opaque label handle issued by ProgramBuilder::newLabel(). */
struct Label
{
    uint32_t id = UINT32_MAX;
    bool valid() const { return id != UINT32_MAX; }
};

/**
 * Context passed to structured-loop body emitters so the body can branch
 * to the loop head (continue) or past the loop (break).
 */
struct LoopCtx
{
    Label head; //!< address of the first body instruction
    Label exit; //!< address just past the loop
};

/**
 * Single-stream program assembler.
 *
 * Typical use:
 * @code
 *   ProgramBuilder b("demo", 1024);
 *   b.beginFunction("main");
 *   b.li(r1, 0).li(r2, 100);
 *   b.countedLoop(r1, r2, [&](const LoopCtx &) {
 *       b.add(r3, r3, r1);
 *   });
 *   b.halt();
 *   Program p = b.build();
 * @endcode
 *
 * Counted loops are emitted in the do-while shape compilers produce for
 * known-nonzero trip counts: the closing instruction is a backward
 * conditional branch, exactly the pattern the CLS detects.
 */
class ProgramBuilder
{
  public:
    /** @param data_words size of the zero-initialised data segment. */
    explicit ProgramBuilder(std::string name, uint64_t data_words = 0);

    // --- labels & functions -------------------------------------------

    /** Create an unbound label. */
    Label newLabel();

    /** Bind @p label to the current emission point. */
    void bind(Label label);

    /** Create a label already bound to the current emission point. */
    Label here();

    /**
     * Start a function: binds its entry to the current point and records
     * it in the program's function map. Functions are emitted inline, one
     * after another, in a single code stream.
     */
    void beginFunction(const std::string &fn);

    /** Address that @p label will resolve to; label must be bound. */
    uint32_t addrOf(Label label) const;

    /** Current emission address. */
    uint32_t currentAddr() const { return addrOfIndex(code.size()); }

    // --- raw instruction emission -------------------------------------

    ProgramBuilder &nop();
    ProgramBuilder &halt();

    ProgramBuilder &add(Reg rd, Reg a, Reg b);
    ProgramBuilder &sub(Reg rd, Reg a, Reg b);
    ProgramBuilder &mul(Reg rd, Reg a, Reg b);
    ProgramBuilder &div(Reg rd, Reg a, Reg b);
    ProgramBuilder &rem(Reg rd, Reg a, Reg b);
    ProgramBuilder &and_(Reg rd, Reg a, Reg b);
    ProgramBuilder &or_(Reg rd, Reg a, Reg b);
    ProgramBuilder &xor_(Reg rd, Reg a, Reg b);
    ProgramBuilder &shl(Reg rd, Reg a, Reg b);
    ProgramBuilder &shr(Reg rd, Reg a, Reg b);
    ProgramBuilder &slt(Reg rd, Reg a, Reg b);
    ProgramBuilder &sle(Reg rd, Reg a, Reg b);
    ProgramBuilder &seq(Reg rd, Reg a, Reg b);
    ProgramBuilder &sne(Reg rd, Reg a, Reg b);

    ProgramBuilder &addi(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &muli(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &andi(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &ori(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &xori(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &shli(Reg rd, Reg a, int64_t imm);
    ProgramBuilder &shri(Reg rd, Reg a, int64_t imm);

    ProgramBuilder &li(Reg rd, int64_t imm);
    ProgramBuilder &mov(Reg rd, Reg a);

    /** rd = mem[a + imm] (word addressed). */
    ProgramBuilder &ld(Reg rd, Reg a, int64_t imm = 0);
    /** mem[a + imm] = v. */
    ProgramBuilder &st(Reg v, Reg a, int64_t imm = 0);

    ProgramBuilder &beq(Reg a, Reg b, Label t);
    ProgramBuilder &bne(Reg a, Reg b, Label t);
    ProgramBuilder &blt(Reg a, Reg b, Label t);
    ProgramBuilder &bge(Reg a, Reg b, Label t);
    ProgramBuilder &ble(Reg a, Reg b, Label t);
    ProgramBuilder &bgt(Reg a, Reg b, Label t);

    ProgramBuilder &jmp(Label t);
    ProgramBuilder &jmpInd(Reg a);
    ProgramBuilder &call(const std::string &fn);
    ProgramBuilder &callInd(Reg a);
    ProgramBuilder &ret();

    /** rd = address of @p label (patched after layout). */
    ProgramBuilder &liLabel(Reg rd, Label label);
    /** rd = entry address of function @p fn (patched after layout). */
    ProgramBuilder &liFunc(Reg rd, const std::string &fn);

    // --- structured helpers -------------------------------------------

    using BodyFn = std::function<void(const LoopCtx &)>;
    using CondFn = std::function<void(Label exit)>;
    using EmitFn = std::function<void()>;

    /**
     * Do-while counted loop: executes body with @p idx taking the values
     * idx0 .. bound-1 (as held in @p bound at entry), closing with a
     * backward blt. The caller must initialise @p idx before the call.
     * Trip count must be >= 1 at run time or the body still runs once.
     */
    void countedLoop(Reg idx, Reg bound, const BodyFn &body,
                     int64_t step = 1);

    /**
     * While-style loop: @p cond emits instructions that branch to the exit
     * label when the loop should stop; the loop closes with a backward
     * jmp to the condition test.
     */
    void whileLoop(const CondFn &cond, const BodyFn &body);

    /**
     * If/else: @p cond emits a branch to the else-part when the condition
     * fails. @p else_part may be null.
     */
    void ifElse(const CondFn &cond, const EmitFn &then_part,
                const EmitFn &else_part = nullptr);

    // --- finalisation --------------------------------------------------

    /**
     * Resolve all labels, validate, and return the finished program.
     * The builder must not be reused afterwards.
     */
    Program build(const std::string &entry_function = "main");

  private:
    Instr &emit(Opcode op);
    ProgramBuilder &alu3(Opcode op, Reg rd, Reg a, Reg b);
    ProgramBuilder &alui(Opcode op, Reg rd, Reg a, int64_t imm);
    ProgramBuilder &branch(Opcode op, Reg a, Reg b, Label t);

    struct Fixup
    {
        size_t instrIndex;   //!< instruction needing a resolved address
        uint32_t labelId;    //!< label to resolve (or UINT32_MAX)
        std::string funcRef; //!< function to resolve (if labelId unset)
        bool intoImm;        //!< write address into imm (liLabel/liFunc)
    };

    std::string progName;
    uint64_t dataWords;
    std::vector<Instr> code;
    std::vector<uint32_t> labelAddrs; //!< per label id; UINT32_MAX unbound
    std::vector<Fixup> fixups;
    std::map<std::string, uint32_t> functions;
    bool built = false;
};

} // namespace loopspec

#endif // LOOPSPEC_PROGRAM_BUILDER_HH
