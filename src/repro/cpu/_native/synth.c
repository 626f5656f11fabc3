/* Trace synthesis loop: the per-instruction half of
 * repro.workloads.synthetic.SyntheticProgram.emit.
 *
 * Python builds the static program (flat per-block and per-slot
 * arrays), draws every random number the loop consumes in bulk, and
 * allocates the ten trace arrays and the scratch state below.  This
 * loop fills the arrays and advances the program's hot-heap cursors in
 * place, exactly as SyntheticProgram._emit_python does: the contract
 * is byte-identical traces, enforced by tests/workloads/test_synthetic.py.
 *
 * Details that are easy to get wrong:
 *
 * 1. Floating point follows the Python expression by expression:
 *    `(draw - f_stack) - f_hot`, `pow` for `v ** reuse_exponent`, and
 *    truncating casts for `int()`.  The build passes -ffp-contract=off,
 *    so no multiply-add is fused.
 *
 * 2. Python's `//` and `%` floor; C's truncate.  They agree on the
 *    non-negative operands almost every step sees.  The exception is
 *    the cold-walker pick: when stack + hot fractions fall a few ulps
 *    short of 1, rounding can make `v` negative, so it uses floor_mod.
 *
 * 3. `min(int(x), n - 1)` is written `x < n ? (int64_t)x : n - 1`,
 *    which agrees for every x Python accepts and stays defined for the
 *    NaN a negative base would give `pow`.
 */

#include <math.h>
#include <stdint.h>

enum { OP_FALU = 3, OP_FSQRT = 6, OP_LOAD = 7, OP_STORE = 8, OP_BRANCH = 9 };
enum { KIND_CONDITIONAL = 1, KIND_CALL = 2, KIND_RETURN = 3 };
enum { NO_REG = -1, POINTER_REG = 30, WORD = 8, N_OTHERS = 5, WINDOW = 16 };

/* SyntheticProgram's arrays, the profile's knobs, the bulk draws, the
 * scratch state and the trace arrays (repro.cpu.native._SynthArgs). */
typedef struct {
    int64_t n;
    int64_t n_blocks, n_main, n_functions, function_blocks, max_call_depth;
    const int64_t *block_pc, *block_end_pc, *block_kind, *block_dominant;
    const double *block_bias;
    const int64_t *block_others, *slot_start;
    const int64_t *slot_op, *slot_mode, *slot_key, *slot_stream_start;
    int64_t *hot_cursor;
    double stack_fraction, hot_fraction, reuse_exponent;
    int64_t stack_bytes, hot_bytes, region_bytes, data_footprint,
        stream_region;
    int64_t data_base, heap_base, stream_base, stack_base;
    const double *uniforms, *reuse_draws;
    const int64_t *lookbacks;
    int64_t n_streams, n_walkers;
    int64_t *streams;     /* [start, bytes advanced] per stream */
    int64_t *walkers;     /* [region, accesses] per cold walker */
    int64_t *call_stack;  /* [return block, return pc] per frame */
    int64_t *pc;
    uint8_t *op;
    int16_t *src1, *src2, *dst;
    int64_t *mem_addr;
    uint8_t *branch_kind, *taken;
    int64_t *target, *redundancy_key;
} SynthArgs;

/* The last 16 registers written, newest at `top`. */
typedef struct {
    int16_t reg[WINDOW];
    int64_t count, top;
} Recent;

static void recent_init(Recent *r, int16_t first) {
    r->count = 4;
    r->top = 3;
    for (int k = 0; k < 4; k++)
        r->reg[k] = (int16_t)(first + k);
}

/* Deep lookbacks fall off the window: no dependence edge. */
static int16_t pick_source(const Recent *r, int64_t lookback) {
    if (lookback > 6)
        return NO_REG;
    return r->reg[(r->top - (lookback - 1) % r->count + WINDOW) % WINDOW];
}

static void record_write(Recent *r, int16_t reg) {
    r->top = (r->top + 1) % WINDOW;
    r->reg[r->top] = reg;
    if (r->count < WINDOW)
        r->count++;
}

/* Python's `x % m` for m > 0. */
static int64_t floor_mod(int64_t x, int64_t m) {
    return (x % m + m) % m;
}

static int64_t fallthrough_of(const SynthArgs *a, int64_t block) {
    int64_t next = block + 1;
    if (next >= a->n_blocks || (block < a->n_main && a->n_main <= next))
        return 0;
    return next;
}

void repro_synthesize(const SynthArgs *a) {
    const int64_t n = a->n;
    const double f_stack = a->stack_fraction, f_hot = a->hot_fraction;
    const int64_t stack_words = a->stack_bytes / WORD > 1
        ? a->stack_bytes / WORD : 1;
    const int64_t stream_bytes = (a->stream_region / WORD > 1
        ? a->stream_region / WORD : 1) * WORD;
    const int64_t n_regions = a->data_footprint / a->region_bytes > 1
        ? a->data_footprint / a->region_bytes : 1;
    Recent recent_int, recent_fp;
    int64_t cold_count = 0, active_walker = 0, depth = 0;
    int64_t current = 0, slot = a->slot_start[0], u = 0;

    recent_init(&recent_int, 1);
    recent_init(&recent_fp, 32);
    for (int64_t i = 0; i < n; i++) {
        if (slot < a->slot_start[current + 1]) {
            const int64_t o = a->slot_op[slot];
            a->pc[i] = a->block_pc[current]
                + 4 * (slot - a->slot_start[current]);
            a->op[i] = (uint8_t)o;
            if (o == OP_LOAD || o == OP_STORE) {
                const double draw = a->reuse_draws[u];
                int64_t addr;
                if (a->slot_mode[slot] == 1) {
                    int64_t pick = a->slot_stream_start[slot]
                        + (int64_t)(draw * 524287.0);
                    int64_t *stream = a->streams + 2 * (pick % a->n_streams);
                    addr = a->stream_base
                        + (stream[0] + stream[1]) % stream_bytes;
                    stream[1] += WORD;
                } else if (draw < f_stack) {
                    int64_t index = (int64_t)(
                        (double)stack_words * (draw / f_stack));
                    addr = a->stack_base
                        + (index < stack_words - 1 ? index : stack_words - 1)
                        * WORD;
                } else if (draw < f_stack + f_hot) {
                    addr = a->heap_base + a->hot_cursor[slot];
                    a->hot_cursor[slot] += WORD;
                    if (a->hot_cursor[slot] >= a->hot_bytes)
                        a->hot_cursor[slot] = 0;
                } else {
                    const double rest = 1.0 - f_stack - f_hot;
                    const double v = rest > 0
                        ? (draw - f_stack - f_hot) / rest : 0.0;
                    int64_t *walker;
                    if (++cold_count % 24 == 0)
                        active_walker = floor_mod(
                            (int64_t)(v * 7919.0), a->n_walkers);
                    walker = a->walkers + 2 * active_walker;
                    if (walker[1] && walker[1] % 48 == 0) {
                        if ((walker[1] / 48) % 6) {
                            walker[0] = (walker[0] + 1) % n_regions;
                        } else {
                            double x = (double)n_regions
                                * pow(v, a->reuse_exponent);
                            walker[0] = x < (double)n_regions
                                ? (int64_t)x : n_regions - 1;
                        }
                    }
                    addr = a->data_base + walker[0] * a->region_bytes
                        + (walker[1] * WORD) % a->region_bytes;
                    walker[1]++;
                }
                a->mem_addr[i] = addr;
                if (a->slot_mode[slot] == 2) {
                    a->src1[i] = POINTER_REG;
                    if (o == OP_LOAD)
                        a->dst[i] = POINTER_REG;
                } else {
                    a->src1[i] = pick_source(&recent_int, a->lookbacks[u]);
                    if (o == OP_LOAD) {
                        int16_t d = (int16_t)(1 + a->lookbacks[u + 1] % 29);
                        a->dst[i] = d;
                        record_write(&recent_int, d);
                    } else {
                        a->src2[i] = pick_source(&recent_int,
                                                 a->lookbacks[u + 1]);
                    }
                }
            } else {
                const int fp = o >= OP_FALU && o <= OP_FSQRT;
                Recent *recent = fp ? &recent_fp : &recent_int;
                int16_t d = (int16_t)((fp ? 32 : 1)
                    + (int64_t)(a->uniforms[u] * 1e9) % (fp ? 31 : 29));
                a->src1[i] = pick_source(recent, a->lookbacks[u]);
                a->src2[i] = pick_source(recent, a->lookbacks[u + 1]);
                a->dst[i] = d;
                record_write(recent, d);
                a->redundancy_key[i] = a->slot_key[slot];
            }
            u = (u + 2) % (2 * n);
            slot++;
            continue;
        }

        /* Block-terminating control transfer. */
        const int64_t end_pc = a->block_end_pc[current];
        const int64_t kind = a->block_kind[current];
        const double draw = a->uniforms[u];
        int64_t next;
        a->pc[i] = end_pc;
        a->op[i] = OP_BRANCH;
        a->branch_kind[i] = (uint8_t)kind;
        a->src1[i] = recent_int.reg[recent_int.top];
        if (kind == KIND_CALL) {
            if (depth >= a->max_call_depth || !a->n_functions) {
                /* Too deep: degrade to a fall-through branch. */
                a->branch_kind[i] = KIND_CONDITIONAL;
                next = fallthrough_of(a, current);
            } else {
                next = a->n_main + a->function_blocks
                    * ((int64_t)(draw * (double)a->n_functions)
                       % a->n_functions);
                a->call_stack[2 * depth] = fallthrough_of(a, current);
                a->call_stack[2 * depth + 1] = end_pc + 4;
                depth++;
                a->taken[i] = 1;
                a->target[i] = a->block_pc[next];
            }
        } else if (kind == KIND_RETURN) {
            a->taken[i] = 1;
            if (depth) {
                depth--;
                next = a->call_stack[2 * depth];
                a->target[i] = a->call_stack[2 * depth + 1];
            } else {
                next = 0;
                a->target[i] = a->block_pc[0];
            }
        } else {
            next = draw < a->block_bias[current]
                ? a->block_dominant[current]
                : a->block_others[N_OTHERS * current
                                  + (int64_t)(draw * 977.0) % N_OTHERS];
            if (next != fallthrough_of(a, current)) {
                a->taken[i] = 1;
                a->target[i] = a->block_pc[next];
            }
        }
        u = (u + 1) % (2 * n);
        current = next;
        slot = a->slot_start[current];
    }
}
