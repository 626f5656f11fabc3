/* Compiled simulator kernel: the default core.
 *
 * One call simulates one (machine, trace) pair: the cache/TLB
 * hierarchy, main memory, the direction predictors, BTB and
 * return-address stack, the functional-unit pool and the out-of-order
 * cycle loop, with the optional functional warm-up in front.  The
 * contract is *field-exact* outputs: every CoreStats counter, every
 * watchdog trip cycle and every watchdog state dump equal to the
 * interpreted reference model's (repro.cpu.pipeline), enforced by
 * repro.cpu.equivalence and `repro diffcore`.  Each component names
 * the Python class whose behaviour it must reproduce; the cycle loop
 * keeps the model's stage order (commit, writeback, issue, dispatch,
 * fetch) but not its data structures.
 *
 * Details that are easy to get wrong:
 *
 * 1. Random replacement must reproduce CPython's random.Random(12345)
 *    exactly: MT19937 seeded via init_by_array([seed]), with
 *    randrange(n) implemented as _randbelow (draw bit_length(n) bits,
 *    retry while >= n).  Each cache owns one generator.
 *
 * 2. Writeback order: completions scheduled for the same cycle retire
 *    in issue order, and two branches resolving together apply their
 *    fetch redirects in that order (last writer wins).  The calendar
 *    queue keeps per-bucket FIFO order for this reason.
 *
 * 3. Set, block and page indices use Python's floor `//` and `%`, so a
 *    negative address lands in a valid set.  Power-of-two geometry
 *    takes a shift and a mask (arithmetic right shift, as gcc and
 *    clang define it for signed operands); other geometry takes the
 *    floor helpers.
 *
 * 4. Issue picks ready instructions oldest first.  Dispatch and commit
 *    are in program order, so the ROB always holds the consecutive
 *    trace indices [committed, committed + rob_count) and the IFQ the
 *    indices [fetch_index - ifq_count, fetch_index).  The ready set is
 *    one bit per ROB slot (slot = trace index & slot_mask), split into
 *    lanes: one per functional-unit class plus one for precomputed
 *    instructions, which need no unit.  A lane whose units are all
 *    busy stays busy for the rest of the cycle, because issuing only
 *    takes units, so the scan skips it outright.
 *
 * Every `goto done` is an allocation-failure exit (status is still
 * STATUS_NO_MEMORY there); the kernel coverage check in CI allows
 * those lines, and only those, to stay unexecuted.
 *
 * Built by repro.cpu.native with gcc or clang (C99 plus
 * __builtin_ctzll); this file needs nothing beyond libc.  The library
 * it is built into also carries synth.c, which builds and emits
 * synthetic programs, and links numpy's sampler archive
 * (libnpyrandom.a) for the build when numpy ships it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* OpClass / BranchKind values (repro.cpu.isa; asserted by native.py). */
#define OP_LOAD 7
#define OP_STORE 8
#define OP_BRANCH 9
#define N_OP_CLASSES 10

/* -- configuration vector indices (keep in sync with native.py) ---------- */

enum {
    CFG_WIDTH = 0,
    CFG_IFQ_ENTRIES,
    CFG_ROB_ENTRIES,
    CFG_LSQ_ENTRIES,
    CFG_MISPREDICT_PENALTY,
    CFG_PRED_KIND,          /* 0 2level, 1 bimodal, 2 taken, 3 tournament,
                               4 perfect */
    CFG_SPECULATIVE,        /* speculative_update == "decode" */
    CFG_RAS_ENTRIES,
    CFG_BTB_ENTRIES,
    CFG_BTB_ASSOC,
    CFG_L1I_SIZE, CFG_L1I_ASSOC, CFG_L1I_BLOCK, CFG_L1I_LAT,
    CFG_L1D_SIZE, CFG_L1D_ASSOC, CFG_L1D_BLOCK, CFG_L1D_LAT,
    CFG_L2_SIZE, CFG_L2_ASSOC, CFG_L2_BLOCK, CFG_L2_LAT,
    CFG_REPLACEMENT,        /* 0 lru, 1 fifo, 2 random */
    CFG_MEM_FIRST, CFG_MEM_FOLLOWING, CFG_MEM_BANDWIDTH,
    CFG_ITLB_ENTRIES, CFG_ITLB_PAGE, CFG_ITLB_ASSOC, CFG_ITLB_LAT,
    CFG_DTLB_ENTRIES, CFG_DTLB_PAGE, CFG_DTLB_ASSOC, CFG_DTLB_LAT,
    CFG_PREFETCH_LINES,
    CFG_WARMUP,
    CFG_MAX_CYCLES,
    CFG_HANG_CYCLES,        /* -1 disables the hang watchdog */
    CFG_INT_ALUS, CFG_FP_ALUS, CFG_INT_MULT_DIV, CFG_FP_MULT_DIV,
    CFG_MEM_PORTS,
    CFG_RNG_SEED,
    /* OpClass-indexed tables, N_OP_CLASSES entries each */
    CFG_OP_UNIT,
    CFG_OP_LATENCY = CFG_OP_UNIT + N_OP_CLASSES,
    CFG_OP_INTERVAL = CFG_OP_LATENCY + N_OP_CLASSES,
    CFG_N_FIELDS = CFG_OP_INTERVAL + N_OP_CLASSES,
};

/* -- output vector indices (keep in sync with native.py) ----------------- */

enum {
    OUT_STATUS = 0,         /* 0 ok, 1 cycle budget, 2 hang, -3 no memory */
    OUT_CYCLES,
    OUT_INSTRUCTIONS,
    OUT_BRANCHES,
    OUT_MISPREDICTIONS,
    OUT_BTB_MISFETCHES,
    OUT_RAS_MISPREDICTIONS,
    OUT_L1I_ACC, OUT_L1I_MISS, OUT_L1I_WB,
    OUT_L1D_ACC, OUT_L1D_MISS, OUT_L1D_WB,
    OUT_L2_ACC, OUT_L2_MISS, OUT_L2_WB,
    OUT_ITLB_ACC, OUT_ITLB_MISS,
    OUT_DTLB_ACC, OUT_DTLB_MISS,
    OUT_OPS_INT_ALU, OUT_OPS_FP_ALU, OUT_OPS_INT_MULT_DIV,
    OUT_OPS_FP_MULT_DIV, OUT_OPS_MEM_PORT,
    OUT_DISPATCH_STALL_ROB,
    OUT_DISPATCH_STALL_LSQ,
    OUT_ROB_OCCUPANCY_SUM,
    OUT_STALL_FETCH, OUT_STALL_FU, OUT_STALL_LSQ,
    OUT_STALL_MISPREDICT, OUT_STALL_ROB,
    OUT_PRECOMPUTE_HITS,
    /* watchdog diagnostics, valid when status > 0 */
    OUT_ERR_CYCLE,
    OUT_ERR_COMMITTED,
    OUT_ERR_LAST_COMMIT,
    OUT_ERR_FETCH_INDEX,
    OUT_ERR_FETCH_STALL_UNTIL,
    OUT_ERR_FETCH_BLOCK_MISPREDICT,
    OUT_ERR_IFQ_OCC,
    OUT_ERR_ROB_OCC,
    OUT_ERR_LSQ_OCC,
    OUT_ERR_READY,
    OUT_ERR_PENDING,
    OUT_ERR_HAS_HEAD,
    OUT_ERR_HEAD_SEQ,
    OUT_ERR_HEAD_OP,
    OUT_ERR_HEAD_STATE,
    OUT_ERR_HEAD_DEPS,
    OUT_ERR_HEAD_PC,
    OUT_ERR_HEAD_IS_BRANCH,
    OUT_ERR_HEAD_PRECOMPUTED,
    OUT_N_FIELDS,
};

#define STATUS_OK 0
#define STATUS_CYCLE_BUDGET 1
#define STATUS_HANG 2
#define STATUS_NO_MEMORY (-3)

/* The trace and its static decode (repro.workloads.trace); the layout
 * matches native.py's _TraceArrays. */
typedef struct {
    int64_t n;
    const int64_t *pc;
    const uint8_t *op;
    const int64_t *addr;
    const uint8_t *kind;
    const uint8_t *taken;
    const int64_t *target;
    const int32_t *prod1;
    const int32_t *prod2;
    const int32_t *store_prod;
} TraceArrays;

#define KIND_COND 1
#define KIND_CALL 2
#define KIND_RETURN 3

#define STATE_WAITING 0
#define STATE_ISSUED 1
#define STATE_DONE 2

#define POLICY_LRU 0
#define POLICY_RANDOM 2

#define PRED_2LEVEL 0
#define PRED_BIMODAL 1
#define PRED_TOURNAMENT 3
#define PRED_PERFECT 4

#define NEVER (1LL << 60)
#define MISFETCH_BUBBLE 3

/* gshare/bimodal geometry (repro.cpu.branch defaults). */
#define GSHARE_HISTORY_BITS 4
#define GSHARE_TABLE_BITS 10
#define BIMODAL_TABLE_BITS 11
#define TOURNAMENT_TABLE_BITS 10

#define CTZ64(x) __builtin_ctzll(x)

/* ========================================================================
 * MT19937 with CPython seeding semantics (random.Random(seed))
 * ======================================================================== */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} MT19937;

static void mt_init_genrand(MT19937 *m, uint32_t s) {
    m->mt[0] = s;
    for (m->mti = 1; m->mti < MT_N; m->mti++) {
        m->mt[m->mti] = 1812433253u
            * (m->mt[m->mti - 1] ^ (m->mt[m->mti - 1] >> 30))
            + (uint32_t)m->mti;
    }
}

static void mt_init_by_array(MT19937 *m, const uint32_t *key, int len) {
    int i = 1, j = 0, k;
    mt_init_genrand(m, 19650218u);
    k = (MT_N > len) ? MT_N : len;
    for (; k; k--) {
        m->mt[i] = (m->mt[i]
            ^ ((m->mt[i - 1] ^ (m->mt[i - 1] >> 30)) * 1664525u))
            + key[j] + (uint32_t)j;
        i++; j++;
        if (i >= MT_N) { m->mt[0] = m->mt[MT_N - 1]; i = 1; }
        if (j >= len) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        m->mt[i] = (m->mt[i]
            ^ ((m->mt[i - 1] ^ (m->mt[i - 1] >> 30)) * 1566083941u))
            - (uint32_t)i;
        i++;
        if (i >= MT_N) { m->mt[0] = m->mt[MT_N - 1]; i = 1; }
    }
    m->mt[0] = 0x80000000u;
}

static uint32_t mt_genrand(MT19937 *m) {
    uint32_t y;
    static const uint32_t mag01[2] = {0u, 0x9908b0dfu};
    if (m->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (m->mt[kk] & 0x80000000u) | (m->mt[kk + 1] & 0x7fffffffu);
            m->mt[kk] = m->mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1u];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (m->mt[kk] & 0x80000000u) | (m->mt[kk + 1] & 0x7fffffffu);
            m->mt[kk] = m->mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1u];
        }
        y = (m->mt[MT_N - 1] & 0x80000000u) | (m->mt[0] & 0x7fffffffu);
        m->mt[MT_N - 1] = m->mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1u];
        m->mti = 0;
    }
    y = m->mt[m->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= (y >> 18);
    return y;
}

static void mt_seed(MT19937 *m, uint32_t seed) {
    /* random.Random(seed) for a non-negative int < 2**32 seeds the
     * generator with init_by_array([seed]). */
    mt_init_by_array(m, &seed, 1);
}

static int64_t mt_randbelow(MT19937 *m, int64_t n) {
    /* CPython Random._randbelow_with_getrandbits: draw bit_length(n)
     * bits, retry while the draw >= n. */
    int k = 0;
    int64_t t = n;
    while (t) { k++; t >>= 1; }
    for (;;) {
        uint32_t r = mt_genrand(m) >> (32 - k);
        if ((int64_t)r < n) return (int64_t)r;
    }
}

/* ========================================================================
 * Floor division by a positive geometry constant (Python's // and %)
 * ======================================================================== */

typedef struct {
    int64_t value;
    int64_t mask;       /* value - 1 */
    int shift;          /* log2(value), or -1 when not a power of two */
} Divisor;

static void divisor_init(Divisor *d, int64_t value) {
    d->value = value;
    d->mask = value - 1;
    d->shift = -1;
    if ((value & d->mask) == 0) {
        int s = 0;
        while ((1LL << s) < value) s++;
        d->shift = s;
    }
}

static inline int64_t floor_div(const Divisor *d, int64_t a) {
    if (d->shift >= 0) return a >> d->shift;
    int64_t q = a / d->value;
    return (q * d->value > a) ? q - 1 : q;
}

static inline int64_t floor_mod(const Divisor *d, int64_t a) {
    if (d->shift >= 0) return a & d->mask;
    int64_t r = a % d->value;
    return (r < 0) ? r + d->value : r;
}

/* ========================================================================
 * Main memory (repro.cpu.memory.MainMemory)
 * ======================================================================== */

typedef struct {
    int64_t first_latency;
    int64_t following_latency;
    int64_t bandwidth;
} MainMemory;

static int64_t mem_access(const MainMemory *mem, int64_t n_bytes) {
    int64_t chunks = (n_bytes + mem->bandwidth - 1) / mem->bandwidth;
    return mem->first_latency + (chunks - 1) * mem->following_latency;
}

/* ========================================================================
 * Set-associative cache (repro.cpu.cache.Cache)
 * ======================================================================== */

typedef struct CacheLevel {
    Divisor block;                  /* address -> block number */
    Divisor sets;                   /* block number -> set */
    int64_t latency;
    int32_t assoc;
    int policy;
    struct CacheLevel *next_cache;  /* NULL -> main memory */
    int64_t memory_latency;         /* one block from memory */
    int64_t *tags;                  /* n_sets * assoc, MRU first */
    uint8_t *dirty;
    int32_t *cnt;
    MT19937 rng;
    int64_t acc, miss, wb;
} CacheLevel;

static int cache_init(CacheLevel *c, int64_t size, int64_t assoc,
                      int64_t block, int64_t latency, int policy,
                      uint32_t seed, CacheLevel *next,
                      const MainMemory *memory) {
    int64_t n_blocks = size / block;
    if (assoc == 0 || assoc >= n_blocks) assoc = n_blocks;
    divisor_init(&c->block, block);
    divisor_init(&c->sets, n_blocks / assoc);
    c->latency = latency;
    c->assoc = (int32_t)assoc;
    c->policy = policy;
    c->next_cache = next;
    c->memory_latency = next ? 0 : mem_access(memory, block);
    c->acc = c->miss = c->wb = 0;
    c->tags = (int64_t *)malloc((size_t)n_blocks * sizeof(int64_t));
    c->dirty = (uint8_t *)malloc((size_t)n_blocks);
    c->cnt = (int32_t *)calloc((size_t)c->sets.value, sizeof(int32_t));
    /* Only random replacement draws from the generator. */
    if (policy == POLICY_RANDOM) mt_seed(&c->rng, seed);
    return c->tags && c->dirty && c->cnt;
}

static void cache_free(CacheLevel *c) {
    free(c->tags); free(c->dirty); free(c->cnt);
    c->tags = NULL; c->dirty = NULL; c->cnt = NULL;
}

static int64_t cache_access(CacheLevel *c, int64_t addr, int write) {
    c->acc++;
    int64_t block = floor_div(&c->block, addr);
    int64_t set = floor_mod(&c->sets, block);
    int64_t *tags = c->tags + set * c->assoc;
    uint8_t *dirty = c->dirty + set * c->assoc;
    int32_t cnt = c->cnt[set];
    for (int32_t i = 0; i < cnt; i++) {
        if (tags[i] == block) {
            dirty[i] |= (uint8_t)write;
            if (c->policy == POLICY_LRU && i) {
                uint8_t d = dirty[i];
                memmove(tags + 1, tags, (size_t)i * sizeof(int64_t));
                memmove(dirty + 1, dirty, (size_t)i);
                tags[0] = block;
                dirty[0] = d;
            }
            return c->latency;
        }
    }
    c->miss++;
    int64_t below = c->next_cache
        ? cache_access(c->next_cache, addr, 0)
        : c->memory_latency;
    /* allocate (Cache._allocate): evict first when full, insert MRU */
    if (cnt >= c->assoc) {
        int32_t victim = (c->policy == POLICY_RANDOM)
            ? (int32_t)mt_randbelow(&c->rng, cnt)
            : cnt - 1;
        if (dirty[victim]) c->wb++;
        memmove(tags + victim, tags + victim + 1,
                (size_t)(cnt - 1 - victim) * sizeof(int64_t));
        memmove(dirty + victim, dirty + victim + 1,
                (size_t)(cnt - 1 - victim));
        cnt--;
    }
    memmove(tags + 1, tags, (size_t)cnt * sizeof(int64_t));
    memmove(dirty + 1, dirty, (size_t)cnt);
    tags[0] = block;
    dirty[0] = (uint8_t)write;
    c->cnt[set] = cnt + 1;
    return c->latency + below;
}

/* ========================================================================
 * TLB (repro.cpu.cache.TLB) — always LRU, hit is free
 * ======================================================================== */

typedef struct {
    Divisor page;                   /* address -> page number */
    Divisor sets;                   /* page number -> set */
    int64_t miss_latency;
    int32_t assoc;
    int64_t *tags;
    int32_t *cnt;
    int64_t acc, miss;
} TLBLevel;

static int tlb_init(TLBLevel *t, int64_t n_entries, int64_t page_size,
                    int64_t assoc, int64_t miss_latency) {
    if (assoc == 0 || assoc >= n_entries) assoc = n_entries;
    divisor_init(&t->page, page_size);
    divisor_init(&t->sets, n_entries / assoc);
    t->miss_latency = miss_latency;
    t->assoc = (int32_t)assoc;
    t->acc = t->miss = 0;
    t->tags = (int64_t *)malloc((size_t)n_entries * sizeof(int64_t));
    t->cnt = (int32_t *)calloc((size_t)t->sets.value, sizeof(int32_t));
    return t->tags && t->cnt;
}

static void tlb_free(TLBLevel *t) {
    free(t->tags); free(t->cnt);
    t->tags = NULL; t->cnt = NULL;
}

static int64_t tlb_access(TLBLevel *t, int64_t addr) {
    t->acc++;
    int64_t page = floor_div(&t->page, addr);
    int64_t set = floor_mod(&t->sets, page);
    int64_t *tags = t->tags + set * t->assoc;
    int32_t cnt = t->cnt[set];
    for (int32_t i = 0; i < cnt; i++) {
        if (tags[i] == page) {
            if (i) {
                memmove(tags + 1, tags, (size_t)i * sizeof(int64_t));
                tags[0] = page;
            }
            return 0;
        }
    }
    t->miss++;
    if (cnt < t->assoc) {
        memmove(tags + 1, tags, (size_t)cnt * sizeof(int64_t));
        t->cnt[set] = cnt + 1;
    } else {
        memmove(tags + 1, tags, (size_t)(cnt - 1) * sizeof(int64_t));
    }
    tags[0] = page;
    return t->miss_latency;
}

/* ========================================================================
 * Memory hierarchy (repro.cpu.cache.MemoryHierarchy)
 * ======================================================================== */

typedef struct {
    MainMemory memory;
    CacheLevel l2, l1i, l1d;
    TLBLevel itlb, dtlb;
    int64_t prefetch_lines;
} Hierarchy;

static int64_t instruction_fetch(Hierarchy *h, int64_t pc) {
    return tlb_access(&h->itlb, pc) + cache_access(&h->l1i, pc, 0);
}

static int64_t data_access(Hierarchy *h, int64_t addr, int write) {
    int64_t misses_before = h->l1d.miss;
    int64_t latency = tlb_access(&h->dtlb, addr)
        + cache_access(&h->l1d, addr, write);
    if (h->prefetch_lines && h->l1d.miss > misses_before) {
        /* Next-N-line prefetch: demand hit/miss counters restored,
         * L2 traffic and writebacks kept (MemoryHierarchy.data_access). */
        int64_t demand_acc = h->l1d.acc;
        int64_t demand_miss = h->l1d.miss;
        int64_t block = h->l1d.block.value;
        for (int64_t k = 1; k <= h->prefetch_lines; k++) {
            cache_access(&h->l1d, addr + k * block, 0);
        }
        h->l1d.acc = demand_acc;
        h->l1d.miss = demand_miss;
    }
    return latency;
}

static void hierarchy_reset_stats(Hierarchy *h) {
    h->l1i.acc = h->l1i.miss = h->l1i.wb = 0;
    h->l1d.acc = h->l1d.miss = h->l1d.wb = 0;
    h->l2.acc = h->l2.miss = h->l2.wb = 0;
    h->itlb.acc = h->itlb.miss = 0;
    h->dtlb.acc = h->dtlb.miss = 0;
}

/* ========================================================================
 * Direction predictors (repro.cpu.branch)
 * ======================================================================== */

typedef struct {
    uint8_t *counters;  /* saturating 2-bit, init weakly taken (2) */
    int64_t mask;
} CounterTable;

static int ct_init(CounterTable *t, int bits) {
    int64_t size = 1LL << bits;
    t->counters = (uint8_t *)malloc((size_t)size);
    t->mask = size - 1;
    if (!t->counters) return 0;
    memset(t->counters, 2, (size_t)size);
    return 1;
}

static void ct_free(CounterTable *t) {
    free(t->counters);
    t->counters = NULL;
}

static int ct_predict(const CounterTable *t, int64_t index) {
    return t->counters[index & t->mask] >= 2;
}

static void ct_update(CounterTable *t, int64_t index, int taken) {
    int64_t i = index & t->mask;
    uint8_t c = t->counters[i];
    if (taken) {
        if (c < 3) t->counters[i] = c + 1;
    } else if (c > 0) {
        t->counters[i] = c - 1;
    }
}

/* Tournament _last_components: dict semantics (keyed by pc, pop with
 * default) over a small linear table that grows on demand; occupancy
 * is bounded by the in-flight conditional branches. */
typedef struct {
    int64_t pc;
    uint8_t g, b;
} LastComponent;

typedef struct {
    LastComponent *entries;
    int32_t n, cap;
} LastComponents;

#define LAST_COMPONENTS_INITIAL 8

typedef struct {
    int kind;
    int speculative;
    CounterTable gtable;    /* 2level / tournament gshare PHT */
    int64_t history;
    int64_t history_mask;
    CounterTable btable;    /* bimodal PHT */
    CounterTable chooser;   /* tournament chooser */
    LastComponents lc;
} Predictor;

static int pred_init(Predictor *p, int kind, int speculative) {
    memset(p, 0, sizeof(*p));
    p->kind = kind;
    p->speculative = speculative;
    p->history = 0;
    p->history_mask = (1LL << GSHARE_HISTORY_BITS) - 1;
    if (kind == PRED_2LEVEL) {
        return ct_init(&p->gtable, GSHARE_TABLE_BITS);
    }
    if (kind == PRED_BIMODAL) {
        return ct_init(&p->btable, BIMODAL_TABLE_BITS);
    }
    if (kind == PRED_TOURNAMENT) {
        if (!ct_init(&p->gtable, GSHARE_TABLE_BITS)) return 0;
        if (!ct_init(&p->btable, TOURNAMENT_TABLE_BITS)) return 0;
        if (!ct_init(&p->chooser, TOURNAMENT_TABLE_BITS)) return 0;
        p->lc.cap = LAST_COMPONENTS_INITIAL;
        p->lc.entries = (LastComponent *)malloc(
            (size_t)p->lc.cap * sizeof(LastComponent));
        return p->lc.entries != NULL;
    }
    return 1;  /* taken / perfect: no state */
}

static void pred_free(Predictor *p) {
    ct_free(&p->gtable);
    ct_free(&p->btable);
    ct_free(&p->chooser);
    free(p->lc.entries);
    p->lc.entries = NULL;
}

static void pred_push_history(Predictor *p, int taken) {
    p->history = ((p->history << 1) | (int64_t)taken) & p->history_mask;
}

static int64_t pred_history(const Predictor *p) {
    if (p->kind == PRED_2LEVEL || p->kind == PRED_TOURNAMENT) {
        return p->history;
    }
    return 0;
}

/* Returns 0 when growing the table fails. */
static int lc_put(LastComponents *lc, int64_t pc, int g, int b) {
    LastComponent *e = lc->entries;
    for (int32_t i = 0; i < lc->n; i++) {
        if (e[i].pc == pc) {
            e[i].g = (uint8_t)g;
            e[i].b = (uint8_t)b;
            return 1;
        }
    }
    if (lc->n == lc->cap) {
        e = (LastComponent *)realloc(
            e, 2 * (size_t)lc->cap * sizeof(LastComponent));
        if (!e) return 0;
        lc->entries = e;
        lc->cap *= 2;
    }
    e[lc->n].pc = pc;
    e[lc->n].g = (uint8_t)g;
    e[lc->n].b = (uint8_t)b;
    lc->n++;
    return 1;
}

static void lc_pop(LastComponents *lc, int64_t pc, int taken,
                   int *g, int *b) {
    LastComponent *e = lc->entries;
    for (int32_t i = 0; i < lc->n; i++) {
        if (e[i].pc == pc) {
            *g = e[i].g;
            *b = e[i].b;
            e[i] = e[--lc->n];
            return;
        }
    }
    *g = taken;  /* dict .pop default: (taken, taken) */
    *b = taken;
}

/* Returns the prediction; *ok is cleared when the tournament table
 * cannot grow. */
static int pred_predict(Predictor *p, int64_t pc, int *ok) {
    switch (p->kind) {
    case PRED_2LEVEL: {
        int prediction = ct_predict(&p->gtable, (pc >> 2) ^ p->history);
        if (p->speculative) pred_push_history(p, prediction);
        return prediction;
    }
    case PRED_BIMODAL:
        return ct_predict(&p->btable, pc >> 2);
    case PRED_TOURNAMENT: {
        int g = ct_predict(&p->gtable, (pc >> 2) ^ p->history);
        if (p->speculative) pred_push_history(p, g);
        int b = ct_predict(&p->btable, pc >> 2);
        int use_gshare = ct_predict(&p->chooser, pc >> 2);
        if (!lc_put(&p->lc, pc, g, b)) *ok = 0;
        return use_gshare ? g : b;
    }
    default:
        return 1;  /* static taken */
    }
}

static void pred_update(Predictor *p, int64_t pc, int taken,
                        int64_t history_at_predict) {
    switch (p->kind) {
    case PRED_2LEVEL:
        ct_update(&p->gtable, (pc >> 2) ^ history_at_predict, taken);
        if (!p->speculative) pred_push_history(p, taken);
        break;
    case PRED_BIMODAL:
        ct_update(&p->btable, pc >> 2, taken);
        break;
    case PRED_TOURNAMENT: {
        int g, b;
        lc_pop(&p->lc, pc, taken, &g, &b);
        ct_update(&p->gtable, (pc >> 2) ^ history_at_predict, taken);
        if (!p->speculative) pred_push_history(p, taken);
        ct_update(&p->btable, pc >> 2, taken);
        if (g != b) ct_update(&p->chooser, pc >> 2, taken == g);
        break;
    }
    default:
        break;
    }
}

static void pred_repair(Predictor *p, int64_t history_at_predict,
                        int taken) {
    if ((p->kind == PRED_2LEVEL || p->kind == PRED_TOURNAMENT)
            && p->speculative) {
        p->history = ((history_at_predict << 1) | (int64_t)taken)
            & p->history_mask;
    }
}

/* ========================================================================
 * BTB (repro.cpu.branch.BranchTargetBuffer) — LRU sets of (pc, target)
 * ======================================================================== */

typedef struct {
    Divisor sets;
    int32_t assoc;
    int64_t *pcs;
    int64_t *targets;
    int32_t *cnt;
} BTB;

static int btb_init(BTB *b, int64_t n_entries, int64_t assoc) {
    if (assoc == 0 || assoc >= n_entries) assoc = n_entries;
    b->assoc = (int32_t)assoc;
    divisor_init(&b->sets, n_entries / assoc);
    b->pcs = (int64_t *)malloc((size_t)n_entries * sizeof(int64_t));
    b->targets = (int64_t *)malloc((size_t)n_entries * sizeof(int64_t));
    b->cnt = (int32_t *)calloc((size_t)b->sets.value, sizeof(int32_t));
    return b->pcs && b->targets && b->cnt;
}

static void btb_free(BTB *b) {
    free(b->pcs); free(b->targets); free(b->cnt);
    b->pcs = NULL; b->targets = NULL; b->cnt = NULL;
}

static int btb_lookup(BTB *b, int64_t pc, int64_t *target) {
    int64_t set = floor_mod(&b->sets, pc >> 2);
    int64_t *pcs = b->pcs + set * b->assoc;
    int64_t *tgts = b->targets + set * b->assoc;
    int32_t cnt = b->cnt[set];
    for (int32_t i = 0; i < cnt; i++) {
        if (pcs[i] == pc) {
            int64_t t = tgts[i];
            if (i) {
                memmove(pcs + 1, pcs, (size_t)i * sizeof(int64_t));
                memmove(tgts + 1, tgts, (size_t)i * sizeof(int64_t));
                pcs[0] = pc;
                tgts[0] = t;
            }
            *target = t;
            return 1;
        }
    }
    return 0;
}

static void btb_insert(BTB *b, int64_t pc, int64_t target) {
    int64_t set = floor_mod(&b->sets, pc >> 2);
    int64_t *pcs = b->pcs + set * b->assoc;
    int64_t *tgts = b->targets + set * b->assoc;
    int32_t cnt = b->cnt[set];
    for (int32_t i = 0; i < cnt; i++) {
        if (pcs[i] == pc) {
            memmove(pcs + i, pcs + i + 1,
                    (size_t)(cnt - 1 - i) * sizeof(int64_t));
            memmove(tgts + i, tgts + i + 1,
                    (size_t)(cnt - 1 - i) * sizeof(int64_t));
            cnt--;
            break;
        }
    }
    int32_t keep = (cnt < b->assoc) ? cnt : b->assoc - 1;
    memmove(pcs + 1, pcs, (size_t)keep * sizeof(int64_t));
    memmove(tgts + 1, tgts, (size_t)keep * sizeof(int64_t));
    pcs[0] = pc;
    tgts[0] = target;
    b->cnt[set] = keep + 1;
}

/* ========================================================================
 * Return-address stack (repro.cpu.branch.ReturnAddressStack) — circular
 * ======================================================================== */

typedef struct {
    int64_t *entries;
    int64_t depth;
    int64_t top;        /* next push slot */
} RAS;

static int ras_init(RAS *r, int64_t depth) {
    r->entries = (int64_t *)calloc((size_t)depth, sizeof(int64_t));
    r->depth = depth;
    r->top = 0;
    return r->entries != NULL;
}

static void ras_free(RAS *r) {
    free(r->entries);
    r->entries = NULL;
}

static void ras_push(RAS *r, int64_t address) {
    r->entries[r->top] = address;
    if (++r->top == r->depth) r->top = 0;
}

static int64_t ras_pop(RAS *r) {
    r->top = (r->top ? r->top : r->depth) - 1;
    return r->entries[r->top];
}

/* ========================================================================
 * Functional units (repro.cpu.funits) — next-free cycle per unit
 * ======================================================================== */

enum { UNIT_INT_ALU, UNIT_FP_ALU, UNIT_INT_MULT_DIV, UNIT_FP_MULT_DIV,
       UNIT_MEM_PORT, N_UNIT_CLASSES };

typedef struct {
    int64_t *next_free[N_UNIT_CLASSES];
    int32_t count[N_UNIT_CLASSES];
    int64_t issued[N_UNIT_CLASSES];
    int64_t *storage;
} FunctionalUnits;

static int funits_init(FunctionalUnits *f, const int64_t *counts) {
    int64_t total = 0;
    for (int u = 0; u < N_UNIT_CLASSES; u++) total += counts[u];
    f->storage = (int64_t *)calloc((size_t)total, sizeof(int64_t));
    if (!f->storage) return 0;
    int64_t *next = f->storage;
    for (int u = 0; u < N_UNIT_CLASSES; u++) {
        f->count[u] = (int32_t)counts[u];
        f->issued[u] = 0;
        f->next_free[u] = next;
        next += counts[u];
    }
    return 1;
}

/* The first unit of class `unit` at or after `start` that is free at
 * `cycle` (UnitClass.issue takes the first free one), or -1. */
static int32_t free_unit(const FunctionalUnits *f, int unit, int64_t cycle,
                         int32_t start) {
    const int64_t *free_at = f->next_free[unit];
    for (int32_t i = start; i < f->count[unit]; i++) {
        if (free_at[i] <= cycle) return i;
    }
    return -1;
}

static int64_t next_pow2(int64_t v) {
    int64_t p = 1;
    while (p < v) p <<= 1;
    return p;
}

/* ========================================================================
 * Ready set: one bit per ROB slot, in a union bitmap and per lane
 * ======================================================================== */

#define LANE_PRECOMPUTED N_UNIT_CLASSES
#define N_LANES (N_UNIT_CLASSES + 1)

typedef struct {
    uint64_t *any;              /* every ready slot, `words` words */
    uint64_t *bits;             /* per lane: N_LANES bitmaps of `words` */
    uint16_t *lane;             /* per slot: the lane of its instruction */
    int64_t words;
    int64_t slot_mask;          /* slot = trace index & slot_mask */
    int64_t in_lane[N_LANES];
    int64_t total;
} ReadySet;

static int ready_init(ReadySet *r, int64_t rob_capacity) {
    int64_t slots = next_pow2(rob_capacity);
    r->slot_mask = slots - 1;
    r->words = (slots + 63) >> 6;
    r->any = (uint64_t *)calloc((size_t)((N_LANES + 1) * r->words),
                                sizeof(uint64_t));
    r->bits = r->any + r->words;
    r->lane = (uint16_t *)malloc((size_t)slots * sizeof(uint16_t));
    return r->any && r->lane;
}

static void ready_free(ReadySet *r) {
    free(r->any); free(r->lane);
    r->any = NULL; r->bits = NULL; r->lane = NULL;
}

/* Adds trace index `index` when `is_ready` (0 or 1) is set, without a
 * branch: whether an instruction is ready is data the host cannot
 * predict. */
static void ready_add(ReadySet *r, int64_t index, int64_t is_ready) {
    int64_t slot = index & r->slot_mask;
    int64_t w = slot >> 6;
    uint64_t bit = (uint64_t)is_ready << (slot & 63);
    int lane = r->lane[slot];
    r->any[w] |= bit;
    r->bits[lane * r->words + w] |= bit;
    r->in_lane[lane] += is_ready;
    r->total += is_ready;
}

/* ========================================================================
 * The simulator
 * ======================================================================== */

/* Adds a wake-up edge producer -> consumer when the producer is still
 * in flight; returns 1 when it did.  Branch-free: the edge is always
 * written and only kept when live, and "no producer" (-1) reads the
 * DONE sentinel in front of `state`. */
static int add_edge(int32_t producer, int32_t consumer,
                    const uint16_t *state, int32_t *wake_head,
                    int32_t *edge_to, int32_t *edge_next,
                    int32_t *edge_count) {
    int live = state[producer] != STATE_DONE;
    int32_t edge = *edge_count;
    int32_t next = wake_head[producer];
    edge_to[edge] = consumer;
    edge_next[edge] = next;
    wake_head[producer] = live ? edge : next;
    *edge_count = edge + live;
    return live;
}

int64_t repro_simulate(
    const int64_t *cfg,
    const TraceArrays *trace,
    const uint8_t *pre_flag,     /* NULL when precomputation is off */
    int64_t *out)
{
    int64_t status = STATUS_NO_MEMORY;  /* until proven otherwise */
    const int64_t n = trace->n;
    const int64_t *pc_arr = trace->pc;
    const uint8_t *op_arr = trace->op;
    const int64_t *addr_arr = trace->addr;
    const uint8_t *kind_arr = trace->kind;
    const uint8_t *taken_arr = trace->taken;
    const int64_t *target_arr = trace->target;
    const int32_t *prod1 = trace->prod1;
    const int32_t *prod2 = trace->prod2;
    const int32_t *store_prod = trace->store_prod;
    const int64_t *op_unit = cfg + CFG_OP_UNIT;
    const int64_t *op_latency = cfg + CFG_OP_LATENCY;
    const int64_t *op_interval = cfg + CFG_OP_INTERVAL;

    Hierarchy hier;
    memset(&hier, 0, sizeof(hier));
    hier.prefetch_lines = cfg[CFG_PREFETCH_LINES];
    hier.memory.first_latency = cfg[CFG_MEM_FIRST];
    hier.memory.following_latency = cfg[CFG_MEM_FOLLOWING];
    hier.memory.bandwidth = cfg[CFG_MEM_BANDWIDTH];
    uint32_t seed = (uint32_t)cfg[CFG_RNG_SEED];
    int policy = (int)cfg[CFG_REPLACEMENT];

    Predictor pred;
    memset(&pred, 0, sizeof(pred));
    BTB btb;
    memset(&btb, 0, sizeof(btb));
    RAS ras;
    memset(&ras, 0, sizeof(ras));
    FunctionalUnits funits;
    memset(&funits, 0, sizeof(funits));
    ReadySet ready;
    memset(&ready, 0, sizeof(ready));

    /* Per-instruction arrays; each entry is written before it is read
     * (state, deps and wake_head at dispatch, mispred and history at
     * fetch, comp_next at issue), so none is cleared up front.  The
     * flags the loop stores are uint16_t, not a character type, so
     * their stores cannot alias the loop's other state.  `state` and
     * `wake_head` have one slot in front for index -1, "no producer". */
    uint16_t *state_mem = NULL, *state = NULL;
    int32_t *deps = NULL;
    uint16_t *mispred = NULL;
    int64_t *history = NULL;
    int32_t *wake_mem = NULL, *wake_head = NULL;
    int32_t *edge_to = NULL, *edge_next = NULL;
    int32_t *bucket_tail = NULL, *comp_next = NULL;

    if (!cache_init(&hier.l2, cfg[CFG_L2_SIZE], cfg[CFG_L2_ASSOC],
                    cfg[CFG_L2_BLOCK], cfg[CFG_L2_LAT], policy, seed,
                    NULL, &hier.memory)) goto done;
    if (!cache_init(&hier.l1i, cfg[CFG_L1I_SIZE], cfg[CFG_L1I_ASSOC],
                    cfg[CFG_L1I_BLOCK], cfg[CFG_L1I_LAT], policy, seed,
                    &hier.l2, NULL)) goto done;
    if (!cache_init(&hier.l1d, cfg[CFG_L1D_SIZE], cfg[CFG_L1D_ASSOC],
                    cfg[CFG_L1D_BLOCK], cfg[CFG_L1D_LAT], policy, seed,
                    &hier.l2, NULL)) goto done;
    if (!tlb_init(&hier.itlb, cfg[CFG_ITLB_ENTRIES], cfg[CFG_ITLB_PAGE],
                  cfg[CFG_ITLB_ASSOC], cfg[CFG_ITLB_LAT])) goto done;
    if (!tlb_init(&hier.dtlb, cfg[CFG_DTLB_ENTRIES], cfg[CFG_DTLB_PAGE],
                  cfg[CFG_DTLB_ASSOC], cfg[CFG_DTLB_LAT])) goto done;

    int pred_kind = (int)cfg[CFG_PRED_KIND];
    int perfect = pred_kind == PRED_PERFECT;
    if (!pred_init(&pred, pred_kind, (int)cfg[CFG_SPECULATIVE])) goto done;
    if (!btb_init(&btb, cfg[CFG_BTB_ENTRIES], cfg[CFG_BTB_ASSOC])) goto done;
    if (!ras_init(&ras, cfg[CFG_RAS_ENTRIES])) goto done;

    int64_t unit_counts[N_UNIT_CLASSES] = {
        cfg[CFG_INT_ALUS], cfg[CFG_FP_ALUS], cfg[CFG_INT_MULT_DIV],
        cfg[CFG_FP_MULT_DIV], cfg[CFG_MEM_PORTS],
    };
    if (!funits_init(&funits, unit_counts)) goto done;
    int64_t rob_capacity = cfg[CFG_ROB_ENTRIES];
    if (!ready_init(&ready, rob_capacity)) goto done;

    /* Calendar queue for completions: ring of per-cycle FIFO buckets,
     * linked through comp_next.  Node n + b heads bucket b, so an
     * append never tests for an empty bucket.  Sized past the longest
     * possible result latency so distinct in-flight cycles never share
     * a bucket. */
    int64_t max_latency = 1;
    for (int op = 0; op < N_OP_CLASSES; op++) {
        if (op_latency[op] > max_latency) max_latency = op_latency[op];
    }
    int64_t data_path = cfg[CFG_DTLB_LAT] + cfg[CFG_L1D_LAT]
        + cfg[CFG_L2_LAT] + hier.l2.memory_latency;
    if (data_path > max_latency) max_latency = data_path;
    int64_t ring = next_pow2(max_latency + 2);
    int64_t ring_mask = ring - 1;

    size_t n_alloc = (size_t)(n > 0 ? n : 1);
    state_mem = (uint16_t *)malloc((n_alloc + 1) * sizeof(uint16_t));
    deps = (int32_t *)malloc(n_alloc * sizeof(int32_t));
    mispred = (uint16_t *)malloc(n_alloc * sizeof(uint16_t));
    history = (int64_t *)malloc(n_alloc * sizeof(int64_t));
    wake_mem = (int32_t *)malloc((n_alloc + 1) * sizeof(int32_t));
    edge_to = (int32_t *)malloc(3 * n_alloc * sizeof(int32_t));
    edge_next = (int32_t *)malloc(3 * n_alloc * sizeof(int32_t));
    comp_next = (int32_t *)malloc((n_alloc + (size_t)ring)
                                  * sizeof(int32_t));
    bucket_tail = (int32_t *)malloc((size_t)ring * sizeof(int32_t));
    if (!state_mem || !deps || !mispred || !history || !wake_mem
            || !edge_to || !edge_next || !comp_next
            || !bucket_tail) goto done;
    state = state_mem + 1;
    state[-1] = STATE_DONE;
    wake_head = wake_mem + 1;
    wake_head[-1] = -1;
    for (int64_t b = 0; b < ring; b++) {
        comp_next[n + b] = -1;
        bucket_tail[b] = (int32_t)(n + b);
    }

    /* -- functional warm-up (Pipeline.warm) ----------------------------- */
    if (cfg[CFG_WARMUP]) {
        int64_t last_block = -1;
        int ok = 1;
        for (int64_t i = 0; i < n; i++) {
            int64_t pc = pc_arr[i];
            int64_t block = floor_div(&hier.l1i.block, pc);
            if (block != last_block) {
                instruction_fetch(&hier, pc);
                last_block = block;
            }
            int op = op_arr[i];
            if (op == OP_LOAD || op == OP_STORE) {
                data_access(&hier, addr_arr[i], op == OP_STORE);
            } else if (op == OP_BRANCH && kind_arr[i] == KIND_COND) {
                int taken = taken_arr[i];
                if (!perfect) {
                    int64_t hist = pred_history(&pred);
                    int predicted = pred_predict(&pred, pc, &ok);
                    pred_update(&pred, pc, taken, hist);
                    if (predicted != taken) {
                        pred_repair(&pred, hist, taken);
                    }
                }
                if (taken) btb_insert(&btb, pc, target_arr[i]);
            }
        }
        if (!ok) goto done;
        hierarchy_reset_stats(&hier);
    }

    /* -- the cycle loop (Pipeline.run) ----------------------------------- */
    int64_t width = cfg[CFG_WIDTH];
    int64_t ifq_capacity = cfg[CFG_IFQ_ENTRIES];
    int64_t lsq_capacity = cfg[CFG_LSQ_ENTRIES];
    int64_t penalty = cfg[CFG_MISPREDICT_PENALTY];
    int64_t redirect_extra = cfg[CFG_L1I_LAT] - 1;
    int64_t l1i_latency = cfg[CFG_L1I_LAT];
    int64_t max_cycles = cfg[CFG_MAX_CYCLES];
    int64_t hang_cycles = cfg[CFG_HANG_CYCLES] < 0
        ? NEVER : cfg[CFG_HANG_CYCLES];
    int store_unit = (int)op_unit[OP_STORE];
    int64_t store_interval = op_interval[OP_STORE];

    int64_t fetch_index = 0;
    int64_t fetch_stall_until = 0;
    int64_t last_fetch_block = -1;
    int fetch_block_mispredict = 0;
    int64_t stall_fetch = 0, stall_mispredict = 0, stall_rob = 0;
    int64_t stall_lsq = 0, stall_fu = 0;
    int64_t dispatch_stall_rob = 0, dispatch_stall_lsq = 0;
    int64_t rob_occupancy_sum = 0;
    int64_t precompute_hits = 0;
    int64_t branches = 0, mispredictions = 0;
    int64_t btb_misfetches = 0, ras_mispredictions = 0;

    int64_t ifq_count = 0;          /* IFQ = [fetch_index - ifq_count, fetch_index) */
    int64_t rob_count = 0;          /* ROB = [committed, committed + rob_count) */
    int64_t lsq_occupancy = 0;
    int64_t pending = 0;
    int32_t edge_count = 0;
    int64_t committed = 0;
    int64_t cycle = 0;
    int64_t last_commit_cycle = 0;

    status = STATUS_OK;
    while (committed < n) {
        cycle++;
        if (cycle > max_cycles) { status = STATUS_CYCLE_BUDGET; break; }
        if (cycle - last_commit_cycle > hang_cycles) {
            status = STATUS_HANG;
            break;
        }

        /* ---- commit ---------------------------------------------------- */
        int64_t budget = width;
        while (budget && rob_count && state[committed] == STATE_DONE) {
            int64_t index = committed;
            int op = op_arr[index];
            if (op == OP_STORE) {
                /* The cache write reuses a memory port; its issue
                 * already tallied the operation. */
                int32_t port = free_unit(&funits, store_unit, cycle, 0);
                if (port < 0) break;
                funits.next_free[store_unit][port] = cycle + store_interval;
                data_access(&hier, addr_arr[index], 1);
            } else if (op == OP_BRANCH && !perfect
                       && kind_arr[index] == KIND_COND) {
                pred_update(&pred, pc_arr[index], taken_arr[index],
                            history[index]);
            }
            lsq_occupancy -= op == OP_LOAD || op == OP_STORE;
            rob_count--;
            budget--;
            committed++;
            last_commit_cycle = cycle;
        }

        /* ---- writeback ------------------------------------------------- */
        int64_t bucket = n + (cycle & ring_mask);
        int32_t done_index = comp_next[bucket];
        comp_next[bucket] = -1;
        bucket_tail[cycle & ring_mask] = (int32_t)bucket;
        while (done_index >= 0) {
            int32_t next_done = comp_next[done_index];
            pending--;
            state[done_index] = STATE_DONE;
            for (int32_t edge = wake_head[done_index]; edge >= 0;
                    edge = edge_next[edge]) {
                int32_t dep = edge_to[edge];
                ready_add(&ready, dep, --deps[dep] == 0);
            }
            if (op_arr[done_index] == OP_BRANCH) {
                int kind = kind_arr[done_index];
                if (mispred[done_index]) {
                    fetch_stall_until = cycle + penalty + redirect_extra;
                    fetch_block_mispredict = 1;
                    if (!perfect && kind == KIND_COND) {
                        pred_repair(&pred, history[done_index],
                                    taken_arr[done_index]);
                    }
                }
                if (kind == KIND_COND && taken_arr[done_index]) {
                    btb_insert(&btb, pc_arr[done_index],
                               target_arr[done_index]);
                }
            }
            done_index = next_done;
        }

        /* ---- issue: oldest first, skipping lanes with every unit busy -- */
        if (ready.total) {
            unsigned blocked = 0;
            int64_t issuable = ready.total;
            for (int lane = 0; lane < N_UNIT_CLASSES; lane++) {
                if (ready.in_lane[lane]
                        && free_unit(&funits, lane, cycle, 0) < 0) {
                    blocked |= 1u << lane;
                    issuable -= ready.in_lane[lane];
                }
            }
            if (!issuable) stall_fu++;  /* ready work, every unit busy */
            budget = width;
            int64_t head_slot = committed & ready.slot_mask;
            int64_t head_word = head_slot >> 6;
            uint64_t from_head = ~0ULL << (head_slot & 63);
            /* Words from the head's, wrapping back to the head's again
             * for the slots below the head. */
            for (int64_t k = 0; issuable && budget && k <= ready.words; k++) {
                int64_t w = head_word + k;
                if (w >= ready.words) w -= ready.words;
                uint64_t word = ready.any[w];
                if (k == 0) word &= from_head;
                else if (k == ready.words) word &= ~from_head;
                for (unsigned b = blocked; b; b &= b - 1) {
                    word &= ~ready.bits[CTZ64(b) * ready.words + w];
                }
                while (word && budget) {
                    int bit = CTZ64(word);
                    uint64_t mask = ~(1ULL << bit);
                    int64_t slot = (w << 6) | bit;
                    int64_t index = committed
                        + ((slot - head_slot) & ready.slot_mask);
                    int lane = ready.lane[slot];
                    int64_t latency;
                    word &= mask;
                    ready.any[w] &= mask;
                    ready.bits[lane * ready.words + w] &= mask;
                    ready.in_lane[lane]--;
                    ready.total--;
                    issuable--;
                    if (lane == LANE_PRECOMPUTED) {
                        latency = 1;
                        precompute_hits++;
                    } else {
                        int op = op_arr[index];
                        int32_t unit = free_unit(&funits, lane, cycle, 0);
                        funits.next_free[lane][unit] =
                            cycle + op_interval[op];
                        funits.issued[lane]++;
                        latency = op_latency[op];
                        if (op == OP_LOAD) {
                            int64_t mem_latency =
                                data_access(&hier, addr_arr[index], 0);
                            if (mem_latency > latency) latency = mem_latency;
                        }
                        /* Units before `unit` are busy this cycle. */
                        if (ready.in_lane[lane] && free_unit(
                                &funits, lane, cycle, unit) < 0) {
                            blocked |= 1u << lane;
                            issuable -= ready.in_lane[lane];
                            word &= ~ready.bits[lane * ready.words + w];
                        }
                    }
                    state[index] = STATE_ISSUED;
                    int64_t when = (cycle + latency) & ring_mask;
                    comp_next[bucket_tail[when]] = (int32_t)index;
                    bucket_tail[when] = (int32_t)index;
                    comp_next[index] = -1;
                    pending++;
                    budget--;
                }
            }
        }

        /* ---- dispatch -------------------------------------------------- */
        budget = width;
        while (budget && ifq_count) {
            int32_t index = (int32_t)(fetch_index - ifq_count);
            int op = op_arr[index];
            int is_mem = op == OP_LOAD || op == OP_STORE;
            if (rob_count >= rob_capacity) {
                dispatch_stall_rob++;
                stall_rob++;
                break;
            }
            if (is_mem && lsq_occupancy >= lsq_capacity) {
                dispatch_stall_lsq++;
                stall_lsq++;
                break;
            }
            ifq_count--;
            budget--;
            state[index] = STATE_WAITING;
            wake_head[index] = -1;
            int32_t count = add_edge(prod1[index], index, state,
                                     wake_head, edge_to, edge_next,
                                     &edge_count);
            count += add_edge(prod2[index], index, state, wake_head,
                              edge_to, edge_next, &edge_count);
            count += add_edge(op == OP_LOAD ? store_prod[index] : -1,
                              index, state, wake_head, edge_to,
                              edge_next, &edge_count);
            lsq_occupancy += is_mem;
            deps[index] = count;
            ready.lane[index & ready.slot_mask] = (uint16_t)(
                (pre_flag && pre_flag[index]) ? LANE_PRECOMPUTED
                                              : op_unit[op]);
            rob_count++;
            ready_add(&ready, index, count == 0);
        }

        /* ---- fetch ----------------------------------------------------- */
        if (fetch_index < n && fetch_stall_until > cycle) {
            if (ifq_count < ifq_capacity) {
                if (fetch_block_mispredict) stall_mispredict++;
                else stall_fetch++;
            }
        } else if (fetch_index < n) {
            budget = width;
            while (budget && ifq_count < ifq_capacity && fetch_index < n) {
                int64_t index = fetch_index;
                int64_t pc = pc_arr[index];
                int64_t block = floor_div(&hier.l1i.block, pc);
                if (block != last_fetch_block) {
                    int64_t latency = instruction_fetch(&hier, pc);
                    last_fetch_block = block;
                    int64_t extra = latency - l1i_latency;
                    if (extra > 0) {
                        fetch_stall_until = cycle + extra;
                        fetch_block_mispredict = 0;
                        break;
                    }
                }
                ifq_count++;
                fetch_index++;
                budget--;
                if (op_arr[index] == OP_BRANCH) {
                    /* Pipeline._fetch_branch: 0 fall through, 1 taken,
                     * 2 mispredicted, 3 BTB misfetch */
                    int kind = kind_arr[index];
                    int taken = taken_arr[index];
                    int stop;
                    branches++;
                    if (perfect) {
                        stop = taken;
                    } else if (kind == KIND_COND) {
                        int64_t hist = pred_history(&pred);
                        int lc_ok = 1;
                        int predicted_taken =
                            pred_predict(&pred, pc, &lc_ok);
                        if (!lc_ok) { status = STATUS_NO_MEMORY; goto done; }
                        history[index] = hist;
                        if (predicted_taken != taken) {
                            mispredictions++;
                            stop = 2;
                        } else if (!taken) {
                            stop = 0;
                        } else {
                            int64_t cached;
                            if (!btb_lookup(&btb, pc, &cached)
                                    || cached != target_arr[index]) {
                                btb_misfetches++;
                                stop = 3;
                            } else {
                                stop = 1;
                            }
                        }
                    } else if (kind == KIND_CALL) {
                        ras_push(&ras, pc + 4);
                        stop = 1;
                    } else if (kind == KIND_RETURN) {
                        if (ras_pop(&ras) != target_arr[index]) {
                            mispredictions++;
                            ras_mispredictions++;
                            stop = 2;
                        } else {
                            stop = 1;
                        }
                    } else {
                        stop = 1;  /* direct unconditional jump */
                    }
                    mispred[index] = (uint16_t)(stop == 2);
                    if (stop == 2) {
                        fetch_stall_until = NEVER;
                        fetch_block_mispredict = 1;
                        break;
                    }
                    if (stop == 3) {
                        fetch_stall_until = cycle + MISFETCH_BUBBLE + 1;
                        fetch_block_mispredict = 0;
                        break;
                    }
                    if (stop == 1) break;
                }
            }
        }

        rob_occupancy_sum += rob_count;
    }

    /* -- results --------------------------------------------------------- */
    out[OUT_CYCLES] = cycle;
    out[OUT_INSTRUCTIONS] = committed;
    out[OUT_BRANCHES] = branches;
    out[OUT_MISPREDICTIONS] = mispredictions;
    out[OUT_BTB_MISFETCHES] = btb_misfetches;
    out[OUT_RAS_MISPREDICTIONS] = ras_mispredictions;
    out[OUT_L1I_ACC] = hier.l1i.acc;
    out[OUT_L1I_MISS] = hier.l1i.miss;
    out[OUT_L1I_WB] = hier.l1i.wb;
    out[OUT_L1D_ACC] = hier.l1d.acc;
    out[OUT_L1D_MISS] = hier.l1d.miss;
    out[OUT_L1D_WB] = hier.l1d.wb;
    out[OUT_L2_ACC] = hier.l2.acc;
    out[OUT_L2_MISS] = hier.l2.miss;
    out[OUT_L2_WB] = hier.l2.wb;
    out[OUT_ITLB_ACC] = hier.itlb.acc;
    out[OUT_ITLB_MISS] = hier.itlb.miss;
    out[OUT_DTLB_ACC] = hier.dtlb.acc;
    out[OUT_DTLB_MISS] = hier.dtlb.miss;
    out[OUT_OPS_INT_ALU] = funits.issued[UNIT_INT_ALU];
    out[OUT_OPS_FP_ALU] = funits.issued[UNIT_FP_ALU];
    out[OUT_OPS_INT_MULT_DIV] = funits.issued[UNIT_INT_MULT_DIV];
    out[OUT_OPS_FP_MULT_DIV] = funits.issued[UNIT_FP_MULT_DIV];
    out[OUT_OPS_MEM_PORT] = funits.issued[UNIT_MEM_PORT];
    out[OUT_DISPATCH_STALL_ROB] = dispatch_stall_rob;
    out[OUT_DISPATCH_STALL_LSQ] = dispatch_stall_lsq;
    out[OUT_ROB_OCCUPANCY_SUM] = rob_occupancy_sum;
    out[OUT_STALL_FETCH] = stall_fetch;
    out[OUT_STALL_FU] = stall_fu;
    out[OUT_STALL_LSQ] = stall_lsq;
    out[OUT_STALL_MISPREDICT] = stall_mispredict;
    out[OUT_STALL_ROB] = stall_rob;
    out[OUT_PRECOMPUTE_HITS] = precompute_hits;

    if (status != STATUS_OK) {
        /* Watchdog diagnostics (Pipeline._hang_dump). */
        out[OUT_ERR_CYCLE] = cycle;
        out[OUT_ERR_COMMITTED] = committed;
        out[OUT_ERR_LAST_COMMIT] = last_commit_cycle;
        out[OUT_ERR_FETCH_INDEX] = fetch_index;
        out[OUT_ERR_FETCH_STALL_UNTIL] = fetch_stall_until;
        out[OUT_ERR_FETCH_BLOCK_MISPREDICT] = fetch_block_mispredict;
        out[OUT_ERR_IFQ_OCC] = ifq_count;
        out[OUT_ERR_ROB_OCC] = rob_count;
        out[OUT_ERR_LSQ_OCC] = lsq_occupancy;
        out[OUT_ERR_READY] = ready.total;
        out[OUT_ERR_PENDING] = pending;
        out[OUT_ERR_HAS_HEAD] = rob_count > 0;
        if (rob_count > 0) {
            int64_t head = committed;
            out[OUT_ERR_HEAD_SEQ] = head;
            out[OUT_ERR_HEAD_OP] = op_arr[head];
            out[OUT_ERR_HEAD_STATE] = state[head];
            out[OUT_ERR_HEAD_DEPS] = deps[head];
            out[OUT_ERR_HEAD_PC] = pc_arr[head];
            out[OUT_ERR_HEAD_IS_BRANCH] = op_arr[head] == OP_BRANCH;
            out[OUT_ERR_HEAD_PRECOMPUTED] =
                pre_flag ? pre_flag[head] : 0;
        }
    }

done:
    cache_free(&hier.l2);
    cache_free(&hier.l1i);
    cache_free(&hier.l1d);
    tlb_free(&hier.itlb);
    tlb_free(&hier.dtlb);
    pred_free(&pred);
    btb_free(&btb);
    ras_free(&ras);
    free(funits.storage);
    ready_free(&ready);
    free(state_mem); free(deps); free(mispred); free(history);
    free(wake_mem); free(edge_to); free(edge_next);
    free(bucket_tail); free(comp_next);
    out[OUT_STATUS] = status;
    return status;
}
