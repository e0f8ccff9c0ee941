/* The package's compiled code: the reinforced walk's steps, the mean-field flow and Rubin's clock race.
 *
 * The walk: its steps for a list of replicas, each replica's PCG64 state as numpy's PCG64 bit for
 * bit, and the walk's table of powers. Two kernels step a block and pick the same sites, as
 * vrrw/walk.py explains: walk_block one replica at a time, up to the first prefix sum above the cut,
 * and walk_group up to LANES replicas in lockstep, counting the sums at or below it. One driver,
 * walk_run, runs a walk's blocks in calls of bounded work and takes walk_block for a replica whose
 * previous block put 7/8 of its steps on two sites, else walk_group. A state row holds state and
 * inc as four uint64 words, low first; 128-bit values live in registers.
 *
 * The flow (the mf_ functions): the field F, one point's powers, sums and energy H, and the simplex
 * projection, for vrrw/dynamics.py and vrrw/graph.py, and one RK4 over them. Every sum is added in
 * site order and every mean-field power is libm's pow of a coordinate over the largest, so no bit
 * depends on BLAS or on numpy's SIMD kernels.
 *
 * The clock race (clock_run, at the end, with no out-of-line helper, so that it moves no kernel):
 * numpy's Philox streams computed here, and libm's log1p, the function math.log1p calls.
 *
 * vrrw/files.py builds this file with -ffp-contract=off and without -ffast-math, so
 * each product and sum is rounded on its own, in the order written here. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* PCG64's multiplier, and numpy's SeedSequence hash constants */
static const u128 MULT = (u128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL;
static const uint32_t INIT_A = 0x43b0d7e5u, MULT_A = 0x931e8875u, INIT_B = 0x8b51f9ddu,
                      MULT_B = 0x58f38dedu, MIX_MULT_L = 0xca01f9ddu, MIX_MULT_R = 0x4973f715u;

/* SeedSequence's hashmix, whose running multiplier h gains a factor mult */
static uint32_t hashmix(uint32_t v, uint32_t *h, uint32_t mult)
{
    v ^= *h;
    *h *= mult;
    v *= *h;
    return v ^ (v >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t v = MIX_MULT_L * x - MIX_MULT_R * y;
    return v ^ (v >> 16);
}

/* a 128-bit value from its two words, low first, and back */
static u128 load(const uint64_t *w) { return (u128)w[1] << 64 | w[0]; }
static void store(uint64_t *w, u128 v) { w[0] = (uint64_t)v, w[1] = (uint64_t)(v >> 64); }

/* Row r of state gets numpy's PCG64(seed) for the seed whose 32-bit words,
 * low first, are row r of the reps x width words (width >= 4): SeedSequence's
 * pool of 4 (slots past the last nonzero word hash 0, words past the fourth
 * are mixed in after), generate_state(4, uint64), then pcg64_srandom_r. */
void seed_pcg64(int64_t reps, int64_t width, const uint32_t *words, uint64_t *state)
{
    for (int64_t r = 0; r < reps; r++) {
        const uint32_t *w = words + r * width;
        int64_t nw = width;
        while (nw > 4 && w[nw - 1] == 0)
            nw--;
        uint32_t pool[4], h = INIT_A;
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix(w[i], &h, MULT_A);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &h, MULT_A));
        for (int64_t src = 4; src < nw; src++)
            for (int dst = 0; dst < 4; dst++)
                pool[dst] = mix(pool[dst], hashmix(w[src], &h, MULT_A));
        /* generate_state's word k (low half first) goes to g[k ^ 1]: low words first */
        uint64_t g[4] = {0};
        h = INIT_B;
        for (int i = 0; i < 8; i++)
            g[i / 2 ^ 1] |= (uint64_t)hashmix(pool[i % 4], &h, MULT_B) << (i % 2 * 32);
        /* a step from state 0 gives inc; add the initial state, step again */
        u128 inc = load(g + 2) << 1 | 1;
        store(state + r * 4, (inc + load(g)) * MULT + inc);
        store(state + r * 4 + 2, inc);
    }
}

/* table[k] = (1 + k)^alpha for 0 <= k < size by libm's pow, which step
 * calls through math.pow; without -ffast-math no vector pow is called */
void power_table(int64_t size, double alpha, double *table)
{
    for (int64_t k = 0; k < size; k++)
        table[k] = pow(1.0 + (double)k, alpha);
}

/* Replica r takes nblk steps from site[r] with row r of the n-column counts,
 * drawing one uniform per step from its PCG64 in row r of state
 * as numpy's next_double does: an LCG step, the XSL-RR output, and its top
 * 53 bits times 2^-53. A step weighs site j by a[site * n + j] * *q[j], adds
 * the weights in site order into csum and moves to the number of prefix sums
 * at or below u times their total. q, w and csum hold n words each: while no
 * count can pass the table in the block, q[j] = table + count_j and a step
 * moves q[s] on; else q[j] = w + j and each step is an event that refreshes
 * w[s] by pow. Step at is logged into row r of log16 or log64 (the one not NULL,
 * rows of log_stride); its counts go to chk[r][i], an event too, when at = chk_steps[i], i >= chk0.
 * Kept out of line: inlined into walk_block's loop over a list of rows, its step
 * loop was compiled otherwise and ran about 20% slower on a walk alternating on two sites.
 * Aligned to 64 bytes, so that code placed before it does not move its step loop
 * against cache-line boundaries: moved 0x50 bytes on, the loop ran about 8% slower there. */
static __attribute__((noinline, aligned(64))) void
walk_replica(int64_t r, int64_t n, int64_t nblk, uint64_t *restrict state, const double *restrict a,
             const double *restrict table, int64_t size, double alpha, int64_t *restrict site,
             int64_t *restrict counts, const double **q, int64_t step0, const int64_t *restrict chk_steps,
             int64_t nchk, int64_t chk0, int64_t *restrict chk, int16_t *restrict log16,
             int64_t *restrict log64, int64_t log_stride)
{
    double *w = (double *)(q + n), *restrict csum = w + n;
    int64_t s = site[r], i = chk0, *c = counts + r * n, cached = 0;
    uint64_t *g = state + r * 4;
    u128 x = load(g), inc = load(g + 2);
    for (int64_t j = 0; j < n; j++)
        cached |= c[j] + nblk >= size;
    for (int64_t j = 0; j < n; j++)
        q[j] = cached ? (w[j] = pow(1.0 + (double)c[j], alpha), w + j) : table + c[j];
    int64_t event = cached ? step0 + 1 : i < nchk ? chk_steps[i] : 0;
    for (int64_t at = step0 + 1; at <= step0 + nblk; at++) {
        const double *row = a + s * n;
        double total = 0.0;
        for (int64_t j = 0; j < n; j++) {
            total += row[j] * *q[j];
            csum[j] = total;
        }
        x = x * MULT + inc;
        uint64_t hi = (uint64_t)(x >> 64), v = hi ^ (uint64_t)x;
        unsigned rot = (unsigned)(hi >> 58);
        v = (v >> rot) | (v << ((-rot) & 63));
        /* through int64_t, so that no unsigned conversion is emitted */
        double cut = (double)(int64_t)(v >> 11) * 0x1.0p-53 * total;
        /* csum[n - 1] = total > cut for u < 1: the bound only keeps s in range */
        for (s = 0; s < n - 1 && csum[s] <= cut; s++)
            ;
        q[s]++;
        if (log16)
            log16[r * log_stride + at] = (int16_t)s;
        else if (log64)
            log64[r * log_stride + at] = s;
        if (at == event) {
            if (cached)
                q[s] = w + s, w[s] = pow(1.0 + (double)++c[s], alpha);
            if (i < nchk && chk_steps[i] == at) {
                for (int64_t j = 0; j < n; j++)
                    chk[(r * nchk + i) * n + j] = cached ? c[j] : q[j] - table;
                i++;
            }
            event = cached ? at + 1 : i < nchk ? chk_steps[i] : 0;
        }
    }
    for (int64_t j = 0; j < n && !cached; j++)
        c[j] = q[j] - table;
    site[r] = s;
    store(g, x);
}

/* walk_replica for each replica r = rows[k] (k if rows is NULL), k < reps */
void walk_block(int64_t n, int64_t reps, const int64_t *rows, int64_t nblk, uint64_t *restrict state,
                const double *restrict a, const double *restrict table, int64_t size, double alpha,
                int64_t *restrict site, int64_t *restrict counts, const double **q, int64_t step0,
                const int64_t *restrict chk_steps, int64_t nchk, int64_t chk0, int64_t *restrict chk,
                int16_t *restrict log16, int64_t *restrict log64, int64_t log_stride)
{
    for (int64_t k = 0; k < reps; k++)
        walk_replica(rows ? rows[k] : k, n, nblk, state, a, table, size, alpha, site, counts, q, step0, chk_steps,
                     nchk, chk0, chk, log16, log64, log_stride);
}

/* walk_block's steps, for the replicas in groups of up to LANES that step in
 * lockstep: each step takes a step of every lane in turn. Lane l keeps its q, w and
 * csum of n words each at offset l * n of their arrays, a scratch of 3n LANES words.
 * A lane's weights, sums and cut are walk_block's, and it picks the count of the
 * first n - 1 prefix sums at or below the cut: where walk_block's scan stops, as the
 * sums never decrease. No branch depends on the uniform, so the lanes' steps overlap.
 * A short last group has fewer lanes; checkpoint steps are the same for every lane. */
#define LANES 8
void walk_group(int64_t n, int64_t reps, const int64_t *rows, int64_t nblk, uint64_t *restrict state,
                const double *restrict a, const double *restrict table, int64_t size, double alpha,
                int64_t *restrict site, int64_t *restrict counts, const double **q, int64_t step0,
                const int64_t *restrict chk_steps, int64_t nchk, int64_t chk0, int64_t *restrict chk,
                int16_t *restrict log16, int64_t *restrict log64, int64_t log_stride)
{
    double *w = (double *)(q + LANES * n), *restrict csum = w + LANES * n;
    for (int64_t k = 0; k < reps; k += LANES) {
        int64_t m = reps - k < LANES ? reps - k : LANES, r[LANES], s[LANES], *c[LANES], cached[LANES];
        u128 x[LANES], inc[LANES];
        for (int64_t l = 0; l < m; l++) {
            r[l] = rows ? rows[k + l] : k + l, s[l] = site[r[l]], c[l] = counts + r[l] * n, cached[l] = 0;
            x[l] = load(state + r[l] * 4), inc[l] = load(state + r[l] * 4 + 2);
            for (int64_t j = 0; j < n; j++)
                cached[l] |= c[l][j] + nblk >= size;
            for (int64_t j = 0; j < n; j++)
                q[l * n + j] = cached[l] ? (w[l * n + j] = pow(1.0 + (double)c[l][j], alpha), w + l * n + j)
                                         : table + c[l][j];
        }
        int64_t i = chk0;
        for (int64_t at = step0 + 1; at <= step0 + nblk; at++) {
            for (int64_t l = 0; l < m; l++) {
                const double *row = a + s[l] * n, **ql = q + l * n;
                double total = 0.0, *cl = csum + l * n;
                for (int64_t j = 0; j < n; j++) {
                    total += row[j] * *ql[j];
                    cl[j] = total;
                }
                x[l] = x[l] * MULT + inc[l];
                uint64_t hi = (uint64_t)(x[l] >> 64), v = hi ^ (uint64_t)x[l];
                unsigned rot = (unsigned)(hi >> 58);
                v = (v >> rot) | (v << ((-rot) & 63));
                double cut = (double)(int64_t)(v >> 11) * 0x1.0p-53 * total;
                int64_t t = 0;
                for (int64_t j = 0; j < n - 1; j++)
                    t += cl[j] <= cut;
                s[l] = t;
                if (cached[l])
                    w[l * n + t] = pow(1.0 + (double)++c[l][t], alpha);
                else
                    ql[t]++;
                if (log16)
                    log16[r[l] * log_stride + at] = (int16_t)t;
                else if (log64)
                    log64[r[l] * log_stride + at] = t;
            }
            if (i < nchk && chk_steps[i] == at) {
                for (int64_t l = 0; l < m; l++)
                    for (int64_t j = 0; j < n; j++)
                        chk[(r[l] * nchk + i) * n + j] = cached[l] ? c[l][j] : q[l * n + j] - table;
                i++;
            }
        }
        for (int64_t l = 0; l < m; l++) {
            for (int64_t j = 0; j < n && !cached[l]; j++)
                c[l][j] = q[l * n + j] - table;
            site[r[l]] = s[l];
            store(state + r[l] * 4, x[l]);
        }
    }
}

/* The kernels' order after a block of nblk steps: a replica whose two largest count
 * increases over the block (after - before) sum to at least 7/8 of its steps is paired.
 * rows lists the paired replicas, then the others, each in increasing order; returns
 * how many are paired. */
static int64_t choose(int64_t n, int64_t reps, int64_t nblk, const int64_t *after, const int64_t *before,
                      int64_t *rows)
{
    int64_t paired = 0, back = reps;
    for (int64_t r = 0; r < reps; r++) {
        int64_t top = 0, second = 0;
        for (int64_t j = r * n; j < (r + 1) * n; j++) {
            int64_t d = after[j] - before[j];
            if (d > top)
                second = top, top = d;
            else if (d > second)
                second = d;
        }
        if (8 * (top + second) >= 7 * nblk)
            rows[paired++] = r;
        else
            rows[--back] = r;
    }
    for (int64_t i = paired, j = reps - 1; i < j; i++, j--) {
        int64_t t = rows[i];
        rows[i] = rows[j], rows[j] = t;
    }
    return paired;
}

/* A walk of `horizon` steps for reps replicas, in calls that each run whole blocks
 * until one more would take the call past `budget` replica-steps (it runs at least
 * one) or the walk ends, and return the steps done, so that the caller sees a signal
 * between calls. The first block is `first` steps long, the others `block`. Between
 * calls the walk lives in the workspace iw, laid out as vrrw/walk.py makes it:
 *   done, paired       steps done (0 before the first call), rows' paired part
 *   site[reps]         each replica's site: its start before the first call
 *   counts[reps n]     its visit counts
 *   chk[reps nchk n]   its counts at the checkpoint steps
 *   state[4 reps]      its PCG64 (uint64 words)
 *   grouped[reps]      the blocks it took through walk_group
 *   chk_steps[nchk]    the checkpoint steps, increasing
 *   rows[reps]         the kernels' order: walk_block steps the paired part, walk_group the rest
 *   before[reps n]     the counts before a block that a next block follows
 * and then, as doubles, the table of `size` powers and the kernels' scratch of 3n
 * LANES words. The first call seeds state from words (width 32-bit words a replica,
 * as seed_pcg64 reads them), counts each start and logs it at step 0, and fills the
 * table. Its first block takes every replica through walk_block: no block before it
 * tells which kernel suits a replica. After a block that a next block follows, choose
 * orders the rows. */
int64_t walk_run(int64_t n, int64_t reps, double alpha, const double *a, int64_t horizon, int64_t first,
                 int64_t block, int64_t budget, int64_t size, int64_t nchk, int64_t width, const uint32_t *words,
                 int16_t *log16, int64_t *log64, int64_t *iw)
{
    int64_t *site = iw + 2, *counts = site + reps, *chk = counts + reps * n, *grouped = chk + reps * nchk * n + 4 * reps,
            *chk_steps = grouped + reps, *rows = chk_steps + nchk, *before = rows + reps;
    uint64_t *state = (uint64_t *)(chk + reps * nchk * n);
    double *table = (double *)(before + reps * n);
    const double **q = (const double **)(table + size);
    int64_t done = iw[0], taken = 0, i = 0;
    if (done == 0) {
        seed_pcg64(reps, width, words, state);
        power_table(size, alpha, table);
        memset(counts, 0, reps * n * sizeof *counts);
        memset(grouped, 0, reps * sizeof *grouped);
        for (int64_t r = 0; r < reps; r++) {
            counts[r * n + site[r]] = 1, rows[r] = r;
            if (log16)
                log16[r * (horizon + 1)] = (int16_t)site[r];
            else if (log64)
                log64[r * (horizon + 1)] = site[r];
        }
        iw[1] = reps;
    }
    while (done < horizon) {
        int64_t nblk = done ? block : first < block ? first : block, paired = iw[1];
        nblk = nblk < horizon - done ? nblk : horizon - done;
        if (taken && taken + reps * nblk > budget)
            break;
        if (done + nblk < horizon)
            memcpy(before, counts, reps * n * sizeof *counts);
        while (i < nchk && chk_steps[i] <= done)
            i++;
        walk_block(n, paired, rows, nblk, state, a, table, size, alpha, site, counts, q, done, chk_steps, nchk, i,
                   chk, log16, log64, horizon + 1);
        walk_group(n, reps - paired, rows + paired, nblk, state, a, table, size, alpha, site, counts, q, done,
                   chk_steps, nchk, i, chk, log16, log64, horizon + 1);
        for (int64_t k = paired; k < reps; k++)
            grouped[rows[k]]++;
        done += nblk, taken += reps * nblk;
        if (done < horizon)
            iw[1] = choose(n, reps, nblk, counts, before, rows);
    }
    return iw[0] = done;
}

/* The mean-field statuses, which vrrw/dynamics.py turns into typed errors: the
 * projection's, the point's, the sums' (below or past the normal range), the flow's. */
enum { MF_OK, MF_NONFINITE, MF_UNSETTLED, MF_CANCELLED, MF_EMPTY, MF_NEGATIVE, MF_CORE_VANISHES,
       MF_ENERGY_VANISHES, MF_ENERGY_OVERFLOWS, MF_BLEW_UP, MF_CAP };

/* s = (x / m)^alpha by libm's pow, m = max x */
static int scaled_powers(int64_t n, const double *x, double alpha, double *s, double *m)
{
    double top = 0.0;
    int negative = 0;
    for (int64_t j = 0; j < n; j++)
        top = x[j] > top ? x[j] : top, negative |= x[j] < 0.0;
    if (!(top > 0.0))
        return MF_EMPTY;
    if (negative)
        return MF_NEGATIVE;
    for (int64_t j = 0; j < n; j++)
        s[j] = pow(x[j] / top, alpha);
    *m = top;
    return MF_OK;
}

/* s = (x / m)^alpha, f = A s and core = <s, A s> for the n x n matrix a, each sum in site order */
static int pieces(int64_t n, const double *a, double alpha, const double *x, double *s, double *f, double *core,
                  double *m)
{
    int status = scaled_powers(n, x, alpha, s, m);
    if (status)
        return status;
    double c = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double fi = 0.0;
        for (int64_t j = 0; j < n; j++)
            fi += a[i * n + j] * s[j];
        f[i] = fi;
        c += s[i] * fi;
    }
    *core = c;
    return MF_OK;
}

/* H(x) = <s, A s> m^alpha m^alpha into h; s and f are n words of scratch each */
static int energy(int64_t n, const double *a, double alpha, const double *x, double *s, double *f, double *h)
{
    double core, m;
    int status = pieces(n, a, alpha, x, s, f, &core, &m);
    if (status)
        return status;
    double scale = pow(m, alpha);
    *h = core * scale * scale;
    /* an infinite scale overflows even where core is 0 */
    return isinf(scale) || *h > DBL_MAX ? MF_ENERGY_OVERFLOWS : *h >= DBL_MIN ? MF_OK : MF_ENERGY_VANISHES;
}

static int descending(const void *p, const void *q)
{
    double x = *(const double *)p, y = *(const double *)q;
    return (x < y) - (x > y);
}

/* The Euclidean projection of x onto the simplex, in place: with x sorted
 * decreasingly into srt (n words of scratch), take the largest m whose
 * x_(m) - (sum of the top m, less 1) / m is positive, and shift x down by that
 * threshold, clipping at 0. A point whose coordinates are nonnegative and sum to
 * within 1e-12 of 1 is left as it is; *clips counts a projection that moves x.
 * Huge inputs may need a second pass, as the shift cancels. In exact arithmetic
 * m = 1 always passes; when the cancellation fails it too, the status says so. */
static int project(int64_t n, double *x, double *srt, int64_t *clips)
{
    for (int pass = 0; pass < 16; pass++) {
        double low = INFINITY, total = 0.0;
        int finite = 1;
        for (int64_t j = 0; j < n; j++)
            low = x[j] < low ? x[j] : low, total += x[j], finite &= isfinite(x[j]) != 0;
        if (low >= 0.0 && fabs(total - 1.0) <= 1e-12)
            return MF_OK;
        if (!finite)
            return MF_NONFINITE;
        *clips += pass == 0;
        memcpy(srt, x, n * sizeof *srt);
        qsort(srt, n, sizeof *srt, descending);
        double csum = 0.0, theta = NAN;
        for (int64_t m = 1; m <= n; m++) {
            csum += srt[m - 1];
            double shift = (csum - 1.0) / (double)m;
            if (srt[m - 1] - shift > 0.0)
                theta = shift;
        }
        if (isnan(theta))
            return MF_CANCELLED;
        for (int64_t j = 0; j < n; j++)
            x[j] = x[j] - theta > 0.0 ? x[j] - theta : 0.0;
    }
    return MF_UNSETTLED;
}

/* F(x) = pi(w) - x into out, w the projection of x with x's zeros kept at 0:
 * out = s f / core - x with the pieces of w. w, s and f are n words each; on a
 * failure w holds the point it is about: x if its projection failed, else w. */
static int field(int64_t n, const double *a, double alpha, const double *x, double *out, double *w, double *s,
                 double *f, int64_t *clips)
{
    memcpy(w, x, n * sizeof *w);
    int status = project(n, w, s, clips);
    if (status) {
        memcpy(w, x, n * sizeof *w);
        return status;
    }
    for (int64_t j = 0; j < n; j++)
        w[j] = x[j] == 0.0 ? 0.0 : w[j];
    double core, m;
    status = pieces(n, a, alpha, w, s, f, &core, &m);
    if (!status && !(core >= DBL_MIN))
        status = MF_CORE_VANISHES;
    for (int64_t j = 0; j < n && !status; j++)
        out[j] = s[j] * f[j] / core - x[j];
    return status;
}

/* y = x + h k, an RK4 stage's point */
static const double *stage(int64_t n, double *y, const double *x, double h, const double *k)
{
    for (int64_t j = 0; j < n; j++)
        y[j] = x[j] + h * k[j];
    return y;
}

/* The entry points for one point x of n coordinates, x = io[0, n): each writes
 * its results after x in io, takes its scratch from there, and returns a status.
 * mf_project: io = x, scratch[n]; x is projected in place. */
int64_t mf_project(int64_t n, double *io)
{
    int64_t clips = 0;
    return project(n, io, io + n, &clips);
}

/* io = x, F(x)[n], w[n], scratch[2n]; on a failure w is the point it is about */
int64_t mf_field(int64_t n, const double *a, double alpha, double *io)
{
    int64_t clips = 0;
    return field(n, a, alpha, io, io + n, io + 2 * n, io + 3 * n, io + 4 * n, &clips);
}

/* io = x, s[n], t[n], f[n], core, H, core's status, H's status: s = (x/m)^alpha, t = (x/m)^(alpha - 1),
 * f = A s, core = <s, f> and H = core m^alpha m^alpha, as energy takes it (a helper shared with energy
 * moved the walk's kernels, placed after it, and slowed a K8 walk by 3%). It returns the powers'
 * status; a core or H outside the normal range still leaves s, t and f written. */
int64_t mf_point(int64_t n, const double *a, double alpha, double *io)
{
    double *s = io + n, *t = s + n, *f = t + n, *out = f + n, m;
    int status = pieces(n, a, alpha, io, s, f, out, &m);
    if (status)
        return status;
    for (int64_t j = 0; j < n; j++)
        t[j] = pow(io[j] / m, alpha - 1.0);
    double scale = pow(m, alpha);
    out[1] = out[0] * scale * scale;
    out[2] = out[0] >= DBL_MIN ? MF_OK : MF_CORE_VANISHES;
    out[3] = isinf(scale) || out[1] > DBL_MAX ? MF_ENERGY_OVERFLOWS : out[1] >= DBL_MIN ? MF_OK : MF_ENERGY_VANISHES;
    return MF_OK;
}

/* RK4 steps first + 1 to last of dt from the start in states[0, n), each row of
 * states and entry of energies the next: four fields, the update
 * x + dt/6 (k1 + 2 k2 + 2 k3 + k4), its projection, the start's zeros pinned to 0
 * and the row renormalized, the cap test (a site without a loop, a[j][j] = 0,
 * above cap stops the flow, unless the start is above cap at such a site: only
 * a step that crosses the cap stops it) and H; step 0 is H of the start. Rows up
 * to first are a previous call's, so a flow can take its steps in slices of calls.
 * info = {the step it stopped at, clips so far}. A failure leaves the rows
 * before its step, the step's row if the cap or H failed it, and in work[0, n)
 * the point a field or H failed at. work is 7n words. Aligned to 64 bytes, as
 * walk_replica is, so that code removed or added before it leaves its loop in place. */
__attribute__((aligned(64))) int64_t
mf_flow(int64_t n, const double *a, double alpha, int64_t first, int64_t last, double dt, double cap,
        double *states, double *energies, double *work, int64_t *info)
{
    double *w = work, *k1 = w + n, *k2 = k1 + n, *k3 = k2 + n, *k4 = k3 + n, *s = k4 + n, *f = s + n;
    const double *start = states, half = 0.5 * dt, sixth = dt / 6.0;
    int64_t k = first, status = first ? MF_OK : energy(n, a, alpha, start, s, f, energies), zeros = 0;
    for (int64_t j = 0; j < n; j++)
        zeros |= start[j] == 0.0, cap = a[j * n + j] == 0.0 && start[j] > cap ? INFINITY : cap;
    while (!status && k < last) {
        const double *x = states + k * n;
        double *next = states + ++k * n;
        /* the stages' points go in next, which the update overwrites */
        status = field(n, a, alpha, x, k1, w, s, f, info + 1);
        if (!status)
            status = field(n, a, alpha, stage(n, next, x, half, k1), k2, w, s, f, info + 1);
        if (!status)
            status = field(n, a, alpha, stage(n, next, x, half, k2), k3, w, s, f, info + 1);
        if (!status)
            status = field(n, a, alpha, stage(n, next, x, dt, k3), k4, w, s, f, info + 1);
        if (status)
            break;
        for (int64_t j = 0; j < n; j++)
            next[j] = x[j] + sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        if (project(n, next, s, info + 1)) {
            status = MF_BLEW_UP;
            break;
        }
        if (zeros) {
            double total = 0.0;
            for (int64_t j = 0; j < n; j++)
                total += next[j] = start[j] == 0.0 ? 0.0 : next[j];
            for (int64_t j = 0; j < n; j++)
                next[j] /= total;
        }
        for (int64_t j = 0; j < n; j++)
            if (a[j * n + j] == 0.0 && next[j] > cap)
                status = MF_CAP;
        if (!status && (status = energy(n, a, alpha, next, s, f, energies + k)))
            memcpy(w, next, n * sizeof *w);
    }
    if (k == 0 && status)
        memcpy(w, start, n * sizeof *w);
    info[0] = k;
    return status;
}

/* Draw j of numpy's Generator(Philox(key=[k0, k1])).random(): output j mod 4 of Philox4x64-10
 * (Salmon et al. 2011) at counter j / 4 + 1, its top 53 bits times 2^-53. */
static inline __attribute__((always_inline)) double philox(uint64_t k0, uint64_t k1, uint64_t j)
{
    uint64_t c[4] = {j / 4 + 1, 0, 0, 0};
    for (int round = 0; round < 10; round++) {
        u128 p0 = (u128)0xD2E7470EE14C6C93ULL * c[0], p1 = (u128)0xCA5A826395121157ULL * c[2];
        c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0, c[1] = (uint64_t)p1;
        c[2] = (uint64_t)(p0 >> 64) ^ c[3] ^ k1, c[3] = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL;
    }
    return (double)(int64_t)(c[j % 4] >> 11) * 0x1.0p-53;
}

/* Rubin's clock race (vrrw/rubin.py) on the edges a[x n + y] > 0 for `budget` jumps, in calls of at
 * most `slice` jumps that return the jumps done. At x, edge e = x n + y runs the duration it froze
 * with at level l = count of y, else -log1p(-philox(key, e, l)) / rates[l]. The shortest wins, the
 * others freeze; an exact tie redraws the tied ones, in site order, from philox(tie_key, 0xFFFFFFFF,
 * j), j = 0, 1, ... A call returns before a jump needing a level past its nrates rates, that level in
 * need. Between calls the race lives in iw, as vrrw/rubin.py fills it: done, ties, tie draws, need,
 * counts[n], frozen[n n] (each edge's frozen level + 1, 0 for none), chk_steps[nchk], chk[nchk n],
 * sites[budget + 1], then as doubles held[n n] (frozen durations), times[budget + 1] and dur[n]. */
int64_t clock_run(int64_t n, const double *a, int64_t budget, int64_t slice, const double *rates, int64_t nrates,
                  uint64_t key, uint64_t tie_key, int64_t nchk, int64_t *iw)
{
    int64_t *counts = iw + 4, *frozen = counts + n, *chk_steps = frozen + n * n, *chk = chk_steps + nchk,
            *sites = chk + nchk * n;
    double *held = (double *)(sites + budget + 1), *times = held + n * n, *dur = times + budget + 1;
    int64_t done = iw[0], stop = budget - done < slice ? budget : done + slice, i = 0;
    while (i < nchk && chk_steps[i] <= done)
        i++;
    for (; done < stop; done++) {
        int64_t x = sites[done], w = 0, need = 0;
        const double *row = a + x * n;
        for (int64_t y = 0; y < n; y++)
            need = row[y] > 0.0 && counts[y] > need ? counts[y] : need;
        if ((iw[3] = need) >= nrates)
            break;
        /* the first pass sets every duration, each later one redraws those tied at the shortest */
        double best = NAN;
        for (int64_t tied = 2; tied > 1; iw[1] += tied > 1) {
            double tie = best;
            best = INFINITY, tied = 0;
            for (int64_t y = 0, e = x * n; y < n; y++, e++) {
                int64_t l = counts[y];
                if (!(row[y] > 0.0))
                    continue;
                if (isnan(tie))
                    dur[y] = frozen[e] == l + 1 ? held[e] : -log1p(-philox(key, (uint64_t)e, (uint64_t)l)) / rates[l];
                else if (dur[y] == tie)
                    dur[y] = -log1p(-philox(tie_key, 0xFFFFFFFFu, (uint64_t)iw[2]++)) / rates[l];
                tied = dur[y] < best ? 1 : tied + (dur[y] == best);
                best = dur[y] < best ? dur[y] : best;
            }
        }
        while (!(row[w] > 0.0 && dur[w] == best))
            w++;
        for (int64_t y = 0, e = x * n; y < n; y++, e++)
            if (row[y] > 0.0)
                held[e] = dur[y] - best, frozen[e] = y == w ? 0 : counts[y] + 1;
        counts[w]++, sites[done + 1] = w, times[done + 1] = times[done] + best;
        if (i < nchk && chk_steps[i] == done + 1)
            memcpy(chk + i++ * n, counts, n * sizeof *counts);
    }
    return iw[0] = done;
}
