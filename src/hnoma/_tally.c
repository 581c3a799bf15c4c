/* The compiled tally pass of hnoma.tally, one loop per draw:
 *
 * - tally_chunk: schemes.DrawKernel.run on a chunk, with the loss count,
 *   the contended-loss count (DrawKernel.contended_losses) and HSIC-NPA's
 *   loss count on an HSIC-PA run (DrawKernel.npa_losses);
 * - gamma_pass: DrawKernel.gamma_pass;
 * - settle_chunk: DrawKernel.settled on a chunk, with its floor and passed
 *   counts, keeping the positions of the unsettled draws (tally._retire).
 *
 * Each draw goes through DrawKernel's IEEE operations, in its order, on
 * the same operands, and the scalars that DrawKernel folds (beta * rho_n,
 * the settle bounds) come folded from Python, so every count and every γ
 * is numpy's bit for bit.  That holds only when the compiler neither
 * contracts a multiply and an add into one rounding nor reorders float
 * arithmetic: hnoma.ctally builds it with -ffp-contract=off and never with
 * -ffast-math.  The maxima and minima are numpy's, which keep a NaN.
 *
 * A chunk is the draws lo..lo + n - 1 where index is NULL, else the draws
 * index[0..n - 1]; g_m, g_n and gamma are whole-leaf arrays.
 */

#include <stdint.h>

enum { FSIC = 0, HSIC_NPA = 1, HSIC_PA = 2 };

/* The kernel on one chunk, for one scheme and one chunk form: the callers
 * pass constants, so that each copy is a loop without branches.  Flags and
 * counts are doubles (0 or 1, and sums below 2^53, so exact), which lets
 * the compiler run the loop on vectors. */
static inline __attribute__((always_inline)) void
chunk_loop(const int scheme, double rho_m, double eps_m, double beta_rho_n, double rho_n,
           const double *g_m, const double *g_n, double *gamma, const int32_t *index,
           int64_t lo, int64_t n, int64_t *counts)
{
    double hits = 0.0, pt_hits = 0.0, npa_hits = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = index ? index[i] : lo + i;
        double tau = rho_m * g_m[j];
        double denom = tau + 1.0;
        double b = beta_rho_n * g_n[j];      /* received NOMA power of U_n */
        double one_b = b + 1.0;
        double first_stage = b / denom + 1.0;
        double factor = first_stage, over = 0.0;
        if (scheme != FSIC) {
            tau = tau / eps_m;
            tau = tau - 1.0;
            tau = 0.0 >= tau ? 0.0 : tau;    /* np.maximum(0.0, tau) */
            over = b > tau ? 1.0 : 0.0;
            double contended = first_stage;
            if (scheme == HSIC_PA) {
                double adapt = tau * denom >= b ? over : 0.0;
                contended = adapt != 0.0 ? tau + 1.0 : first_stage;
                gamma[j] = adapt != 0.0 ? tau / b : 1.0;
            }
            factor = over != 0.0 ? contended : one_b;
        }
        double rhs = rho_n * g_n[j];
        rhs = rhs + 1.0;
        double lose = factor * one_b <= rhs ? 1.0 : 0.0;
        hits += lose;
        if (scheme == HSIC_PA) {
            pt_hits += tau > 0.0 ? lose * over : 0.0;
            npa_hits += (over != 0.0 ? first_stage : one_b) * one_b <= rhs ? 1.0 : 0.0;
        }
    }
    counts[0] = (int64_t)hits;
    counts[1] = (int64_t)pt_hits;
    counts[2] = (int64_t)npa_hits;
}

/* counts: the losses, the contended losses (lose, over and tau > 0; with
 * want_pt, else 0) and HSIC-NPA's losses (with shared, on an HSIC-PA run,
 * else the losses).  HSIC-PA writes each draw's γ. */
void tally_chunk(int scheme, double rho_m, double eps_m, double beta_rho_n, double rho_n,
                 const double *g_m, const double *g_n, double *gamma,
                 const int32_t *index, int64_t lo, int64_t n, int want_pt, int shared,
                 int64_t *counts)
{
#define CHUNK(s, at) chunk_loop(s, rho_m, eps_m, beta_rho_n, rho_n, g_m, g_n, gamma, at, \
                                lo, n, counts)
    if (scheme == FSIC)
        index ? CHUNK(FSIC, index) : CHUNK(FSIC, 0);
    else if (scheme == HSIC_NPA)
        index ? CHUNK(HSIC_NPA, index) : CHUNK(HSIC_NPA, 0);
    else
        index ? CHUNK(HSIC_PA, index) : CHUNK(HSIC_PA, 0);
#undef CHUNK
    if (!want_pt)
        counts[1] = 0;
    if (!shared)
        counts[2] = counts[0];
}

/* γ of every draw 0..n - 1: 1 where tau * (rho_m g_m + 1) < b, else
 * min(tau / b, 1), NaN where tau = b = 0. */
void gamma_pass(double rho_m, double eps_m, double beta_rho_n,
                const double *g_m, const double *g_n, double *gamma, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        double tau = rho_m * g_m[i];
        double denom = tau + 1.0;
        tau = tau / eps_m;
        tau = tau - 1.0;
        double b = beta_rho_n * g_n[i];
        double first_stage = tau * denom < b ? 1.0 : 0.0;
        double g = tau / b;
        g = g > 1.0 ? 1.0 : g;               /* np.minimum(g, 1.0) */
        gamma[i] = g < first_stage ? first_stage : g;   /* np.maximum */
    }
}

/* The certificate's scalars as DrawKernel.settled forms them at one rho_n. */
struct settle {
    double k_o, k_q, floor_g_n;          /* the floor cone; floor_g_n = δ/ρ_n */
    double k_a_rho, beta_rho, k_x_rho;   /* adapting: k_a ρ_n, β ρ_n, k_x ρ_n */
    double up, up_rho;                   /* 1 + δ, (1 + δ) ρ_n */
    double k_w, k_l;                     /* won for good */
    double up_over_rho, win_g_n;         /* (1 + δ)/ρ_n, (1 + δ)/(ρ_n k_d) */
    double k_a, beta;                    /* type I */
};

int64_t settle_chunk(const struct settle *s, int cone, int adapting, int won_for_good,
                     int passing, const double *g_m, const double *g_n,
                     const int32_t *index, int64_t lo, int64_t n, int32_t *kept,
                     int64_t *counts)
{
    int64_t end = 0, floor = 0, passed = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = index ? index[i] : lo + i;
        double gm = g_m[j], gn = g_n[j];
        int fate = 1, won = 0;
        if (cone) {
            fate = gm * s->k_o <= gn;        /* over at every SNR */
            fate &= gn * s->k_q <= gm;       /* and losing there */
            fate &= gn >= s->floor_g_n;
        }
        if (adapting) {
            int adapts = gm * s->k_o <= gn;
            double a = gm * s->k_a_rho;
            double bb = gn * s->beta_rho;
            double x = gm * s->k_x_rho;
            x = x + 1.0;
            double q = a - s->up;
            q = q * x;                       /* (A - 1 - δ)(1 + X) */
            adapts &= q >= bb * s->up;
            q = bb + 1.0;
            q = q * a;                       /* A(1 + B) */
            double w = gn * s->up_rho;
            w = w + s->up;                   /* (1 + δ)(1 + y) */
            adapts &= q >= w;
            fate &= adapts;
        }
        if (cone)
            floor += fate;
        if (won_for_good) {
            double v = gn * s->k_w;
            v = v - gm * s->k_l;
            won = v >= s->up_over_rho;       /* a type-II win */
        }
        double c = gm * s->k_a;
        c = c - gn * s->beta;                /* (1 - δ)a - βg_n */
        int type_i = (c >= s->up_over_rho) & (gn >= s->win_g_n);
        int out = type_i | won | ((cone | adapting) & fate);
        passed += out & !type_i;
        kept[end] = (int32_t)j;
        end += !out;
    }
    counts[0] = floor;
    counts[1] = passing ? passed : 0;
    return end;
}
