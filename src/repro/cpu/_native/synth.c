/* Trace synthesis: both halves of repro.workloads.synthetic.SyntheticProgram.
 *
 * repro_build_program is the static build, SyntheticProgram.__init__:
 * it draws every block and slot of the program from the profile's
 * numpy Generator, through numpy's own samplers called on that
 * Generator's bit generator, in the order _build_python draws them, so
 * every program array is byte-identical to the Python builder's.  It
 * is compiled only when numpy's sampler archive (libnpyrandom.a) and
 * its bitgen.h header are found, under REPRO_BUILD_PROGRAM.
 *
 * repro_synthesize is the emit loop, the per-instruction half of
 * SyntheticProgram.emit.  Python draws every random number the loop
 * consumes in bulk and allocates the ten trace arrays and the scratch
 * state below.  This loop fills the arrays and advances the program's
 * hot-heap cursors in place, exactly as SyntheticProgram._emit_python
 * does.
 *
 * The contract for both is byte-identical output, enforced by
 * tests/workloads/test_synthetic.py.  Details that are easy to get
 * wrong:
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
 *
 * 4. The build's `ops[cdf.searchsorted(u, side="right")]` is the first
 *    op whose cdf entry is not <= u: numpy sorts NaN last, so a NaN
 *    cdf (weights summing past the double range) picks like Python.
 *    `min(beta, cap)` returns beta unless cap < beta, as Python's min
 *    does.
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

#ifdef REPRO_BUILD_PROGRAM
#include <stdbool.h>
#include "numpy/random/bitgen.h"

/* numpy's samplers, as declared in numpy/random/distributions.h (which
 * needs Python.h), linked from numpy's libnpyrandom.a. */
extern double random_standard_uniform(bitgen_t *bitgen_state);
extern int64_t random_poisson(bitgen_t *bitgen_state, double lam);
extern double random_beta(bitgen_t *bitgen_state, double a, double b);
extern uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off,
                                      uint64_t rng, uint64_t mask,
                                      bool use_masked);

enum { NO_VALUE = -1 };

/* The profile's knobs, the Generator's bit generator and the program
 * arrays to fill (repro.cpu.native._BuildArgs).  The slot arrays hold
 * slot_capacity entries; the block arrays hold one entry per block
 * (N_OTHERS in block_others, one more in slot_start). */
typedef struct {
    bitgen_t *bitgen;
    int64_t n_ops;
    const int64_t *ops;
    const double *cdf;
    double lam;
    int64_t hot_words;
    double streaming, pointer, redundancy;
    int64_t n_keys;
    double exponent;
    int64_t n_main, loop_span;
    double call_fraction, loop_fraction, loop_bias_cap, bias_alpha,
        bias_beta;
    int64_t n_functions, function_blocks;
    double nested_call_fraction;
    int64_t code_base, slot_capacity;
    int64_t *block_pc, *block_end_pc, *block_kind, *block_dominant;
    double *block_bias;
    int64_t *block_others, *slot_start;
    int64_t *slot_op, *slot_mode, *slot_key, *slot_stream_start, *hot_cursor;
} BuildArgs;

/* Generator.random() */
static double uniform(const BuildArgs *a) {
    return random_standard_uniform(a->bitgen);
}

/* Generator.integers(0, bound) for bound >= 1. */
static int64_t below(const BuildArgs *a, int64_t bound) {
    return (int64_t)random_bounded_uint64(a->bitgen, 0,
                                          (uint64_t)(bound - 1), 0, false);
}

/* Block `b` at `pc` and its slots from *slots on, advancing *slots
 * past them; returns the next block's pc.  Slots that do not fit leave
 * *slots above the capacity and the block unwritten. */
static int64_t make_block(const BuildArgs *a, int64_t b, int64_t pc,
                          int64_t *slots) {
    int64_t body = random_poisson(a->bitgen, a->lam);
    const int64_t first = *slots;
    if (body < 1)
        body = 1;
    *slots += body;
    if (*slots > a->slot_capacity)
        return pc;
    a->slot_start[b] = first;
    /* All of the block's op draws come first, as rng.random(body_len). */
    for (int64_t s = first; s < *slots; s++) {
        const double u = uniform(a);
        int64_t k = 0;
        while (k < a->n_ops - 1 && a->cdf[k] <= u)
            k++;
        a->slot_op[s] = a->ops[k];
    }
    for (int64_t s = first; s < *slots; s++) {
        const int64_t op = a->slot_op[s];
        int64_t mode = 0, key = NO_VALUE, stream = 0, hot = 0;
        if (op == OP_LOAD || op == OP_STORE) {
            const double u = uniform(a);
            hot = below(a, a->hot_words) * WORD;
            if (u < a->streaming) {
                mode = 1;
                stream = below(a, 1 << 16);
            } else if (op == OP_LOAD && u < a->pointer) {
                mode = 2;
            }
        } else if (uniform(a) < a->redundancy) {
            /* min(int(n_keys * u ** exponent), n_keys - 1): the product
             * is never negative, and from 2**63 up, where the cast is
             * undefined, min picks n_keys - 1. */
            const double x = (double)a->n_keys * pow(uniform(a), a->exponent);
            key = x < 9223372036854775808.0 ? (int64_t)x : INT64_MAX;
            if (key > a->n_keys - 1)
                key = a->n_keys - 1;
        }
        a->slot_mode[s] = mode;
        a->slot_key[s] = key;
        a->slot_stream_start[s] = stream;
        a->hot_cursor[s] = hot;
    }
    a->block_pc[b] = pc;
    a->block_end_pc[b] = pc + 4 * body;  /* the branch's own pc */
    return pc + 4 * body + 4;
}

/* Fill the program arrays; returns the number of slots the program
 * needs, or a lower bound on it above slot_capacity when they do not
 * fit, leaving the arrays incomplete. */
int64_t repro_build_program(const BuildArgs *a) {
    const int64_t n = a->n_main;
    const int64_t span = a->loop_span > 1 ? a->loop_span : 1;
    int64_t pc = a->code_base, slots = 0, b = n;

    for (int64_t i = 0; i < n; i++) {
        pc = make_block(a, i, pc, &slots);
        if (slots > a->slot_capacity)
            return slots;
    }

    /* Main control flow. */
    for (int64_t i = 0; i < n; i++) {
        int64_t *others = a->block_others + N_OTHERS * i;
        a->block_kind[i] = KIND_CONDITIONAL;
        a->block_dominant[i] = 0;
        a->block_bias[i] = 1.0;
        for (int k = 0; k < N_OTHERS; k++)
            others[k] = 0;
        if (uniform(a) < a->call_fraction && a->n_functions) {
            a->block_kind[i] = KIND_CALL;
            continue;
        }
        const int back_edge = uniform(a) < a->loop_fraction && i > 0;
        if (back_edge) {
            const int64_t low = i > a->loop_span ? i - a->loop_span : 0;
            a->block_dominant[i] = low + below(a, i + 1 - low);
        } else {
            a->block_dominant[i] = (i + 1) % n;
        }
        const double cap = back_edge ? a->loop_bias_cap : 0.98;
        const double bias = random_beta(a->bitgen, a->bias_alpha,
                                        a->bias_beta);
        a->block_bias[i] = cap < bias ? cap : bias;
        /* Other successors: within max(1, loop_span) of i, then anywhere;
         * high is min(n, i + span + 1) without overflowing. */
        const int64_t low = i > span ? i - span : 0;
        const int64_t high = i + 1 + (span < n - i - 1 ? span : n - i - 1);
        for (int k = 0; k < N_OTHERS - 1; k++)
            others[k] = low + below(a, high - low);
        others[N_OTHERS - 1] = below(a, n);
    }

    /* Functions: linear chains ending in a return. */
    for (int64_t f = 0; f < a->n_functions; f++) {
        for (int64_t j = 0; j < a->function_blocks; j++, b++) {
            pc = make_block(a, b, pc, &slots);
            if (slots > a->slot_capacity)
                return slots;
            for (int k = 0; k < N_OTHERS; k++)
                a->block_others[N_OTHERS * b + k] = 0;
            a->block_bias[b] = 1.0;
            if (j == a->function_blocks - 1) {
                a->block_kind[b] = KIND_RETURN;
                a->block_dominant[b] = 0;
            } else {
                a->block_kind[b] = uniform(a) < a->nested_call_fraction
                    ? KIND_CALL : KIND_CONDITIONAL;
                a->block_dominant[b] = b + 1;
            }
        }
    }
    a->slot_start[b] = slots;
    return slots;
}
#endif
