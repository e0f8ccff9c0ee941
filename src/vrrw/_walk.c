/* One block of steps of the reinforced walk for every replica; vrrw/walk.py
 * builds this file at the first walk and says why its picks equal step's. */
#include <stdint.h>
#include "numpy/random/bitgen.h"

/* Replica r takes nblk steps from site[r] with counts row r of the r x n
 * counts, drawing one uniform per step from gens[r]->next_double, the call
 * numpy's Generator.random makes for each double. A step weighs site j by
 * a[site * n + j] * table[count_j], adds the weights in site order into csum
 * (n doubles of scratch) and moves to the number of prefix sums at or below
 * u times their total. Step step0 + k + 1 is logged into row r of log16 or
 * log64 (whichever is not NULL, rows of log_stride), and its counts go to
 * chk[r][i] when it equals chk_steps[i], for i from chk0 on. */
void walk_block(int64_t n, int64_t reps, int64_t nblk, bitgen_t *const *gens,
                const double *a, const double *table,
                int64_t *site, int64_t *counts, double *csum, int64_t step0,
                const int64_t *chk_steps, int64_t nchk, int64_t chk0, int64_t *chk,
                int16_t *log16, int64_t *log64, int64_t log_stride)
{
    for (int64_t r = 0; r < reps; r++) {
        int64_t s = site[r], i = chk0, *c = counts + r * n;
        for (int64_t k = 0; k < nblk; k++) {
            const double *row = a + s * n;
            double total = 0.0;
            for (int64_t j = 0; j < n; j++) {
                total += row[j] * table[c[j]];
                csum[j] = total;
            }
            double cut = gens[r]->next_double(gens[r]->state) * total;
            /* csum[n - 1] = total > cut for u < 1: the bound only keeps s in range */
            for (s = 0; s < n - 1 && csum[s] <= cut; s++)
                ;
            c[s] += 1;
            int64_t at = step0 + k + 1;
            if (log16)
                log16[r * log_stride + at] = (int16_t)s;
            else if (log64)
                log64[r * log_stride + at] = s;
            if (i < nchk && chk_steps[i] == at) {
                for (int64_t j = 0; j < n; j++)
                    chk[(r * nchk + i) * n + j] = c[j];
                i++;
            }
        }
        site[r] = s;
    }
}
