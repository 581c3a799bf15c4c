/* The compiled tally pass of hnoma.tally:
 *
 * - tally_step: one step of tally.tally_curve on one leaf.  It retires the
 *   draws that DrawKernel.settled shows settled (tally._retire: builds or
 *   compacts the live index, with the floor count), writes γ where the
 *   kernel then runs on the index only (1, or DrawKernel.gamma_pass), and
 *   runs schemes.DrawKernel.run on the whole leaf or the live index, with
 *   the loss count, the contended-loss count (DrawKernel.contended_losses)
 *   and HSIC-NPA's loss count on an HSIC-PA run (DrawKernel.npa_losses);
 * - settle_chunk: DrawKernel.settled on a chunk, with its floor and passed
 *   counts, keeping the positions of the unsettled draws (the probe of
 *   tally.plan_curve).
 *
 * Each draw goes through DrawKernel's IEEE operations, in its order, on
 * the same operands, and the scalars that DrawKernel folds (beta * rho_n,
 * the settle bounds) come folded from Python, so every count and every γ
 * is numpy's bit for bit.  That holds only when the compiler neither
 * contracts a multiply and an add into one rounding nor reorders float
 * arithmetic: hnoma.ctally builds it with -ffp-contract=off and never with
 * -ffast-math.  The maxima and minima are numpy's, which keep a NaN.
 *
 * With gcc 11 or later on x86-64 glibc, each exported function is built
 * three times (target_clones), for x86-64-v4 (AVX-512), x86-64-v3 (AVX2)
 * and baseline x86-64 (SSE2), and the dynamic loader runs the widest the
 * CPU has (a GNU ifunc), so one object serves every x86-64 CPU.  Vector
 * width changes no IEEE add, multiply, divide or compare, nor a count:
 * flags and counts are doubles (0 or 1, and sums below 2^53, so exact in
 * any order).  Elsewhere the plain loops are built.
 */

#include <stdint.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11 \
    && defined(__GLIBC__)
#define EXPORT __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define EXPORT
#endif

enum { FSIC = 0, HSIC_NPA = 1, HSIC_PA = 2 };

/* The certificate's scalars as DrawKernel.settled forms them at one rho_n. */
struct settle {
    double k_o, k_q, floor_g_n;          /* the floor cone; floor_g_n = δ/ρ_n */
    double k_a_rho, beta_rho, k_x_rho;   /* adapting: k_a ρ_n, β ρ_n, k_x ρ_n */
    double up, up_rho;                   /* 1 + δ, (1 + δ) ρ_n */
    double k_w, k_l;                     /* won for good */
    double up_over_rho, win_g_n;         /* (1 + δ)/ρ_n, (1 + δ)/(ρ_n k_d) */
    double k_a, beta;                    /* type I */
};

/* One step of a curve (tally.Step): the settle tests with retire, the
 * kernel's scalars, scheme and counts, and with passing γ from the pass. */
struct step {
    struct settle bounds;
    double rho_m, eps_m, beta_rho_n, rho_n;
    int32_t scheme, want_pt, shared;
    int32_t retire, cone, adapting, won_for_good, passing;
};

/* A leaf: its draws' gains, its γ and its index buffer, all size long. */
struct leaf {
    const double *g_m, *g_n;
    double *gamma;
    int32_t *index;
    int64_t size;
};

/* The kernel on the draws 0..n - 1 where index is NULL, else on the draws
 * index[0..n - 1], for one scheme and count set: the callers pass
 * constants, so that each copy is a loop without branches.  counts: the
 * losses, the contended losses (lose, over and tau > 0; with want_pt, else
 * 0) and HSIC-NPA's losses (with shared, on an HSIC-PA run, else the
 * losses).  HSIC-PA writes each draw's γ. */
static inline __attribute__((always_inline)) void
kernel(const int scheme, const int want_pt, const int shared, const struct step *s,
       const double *restrict g_m, const double *restrict g_n, double *restrict gamma,
       const int32_t *restrict index, int64_t n, int64_t *counts)
{
    const double rho_m = s->rho_m, eps_m = s->eps_m, beta_rho_n = s->beta_rho_n,
                 rho_n = s->rho_n;
    double hits = 0.0, pt_hits = 0.0, npa_hits = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = index ? index[i] : i;
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
        /* HSIC-NPA's count before the loss count: gcc 12 leaves the loop
         * with it but without want_pt scalar in the other order */
        if (shared)
            npa_hits += (over != 0.0 ? first_stage : one_b) * one_b <= rhs ? 1.0 : 0.0;
        hits += lose;
        if (want_pt)
            pt_hits += tau > 0.0 ? lose * over : 0.0;
    }
    counts[0] = (int64_t)hits;
    counts[1] = want_pt ? (int64_t)pt_hits : 0;
    counts[2] = shared ? (int64_t)npa_hits : (int64_t)hits;
}

/* γ of every draw 0..n - 1: 1 where tau * (rho_m g_m + 1) < b, else
 * min(tau / b, 1), NaN where tau = b = 0. */
static inline __attribute__((always_inline)) void
gamma_pass(const struct step *s, const double *restrict g_m, const double *restrict g_n,
           double *restrict gamma, int64_t n)
{
    const double rho_m = s->rho_m, eps_m = s->eps_m, beta_rho_n = s->beta_rho_n;
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

/* The settle test on the draws lo..lo + n - 1 where index is NULL, else
 * on the draws index[0..n - 1]: the positions of the unsettled ones go to
 * kept[0..], which may be index itself, and counts gets the floor-cone and
 * the passed draws (settled, but not type I).  Returns how many are kept. */
static inline __attribute__((always_inline)) int64_t
settle(const struct settle *s, int cone, int adapting, int won_for_good, const double *g_m,
       const double *g_n, const int32_t *index, int64_t lo, int64_t n, int32_t *kept,
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
    counts[1] = passed;
    return end;
}

/* settle on a chunk, with the passed count only where passing. */
EXPORT int64_t settle_chunk(const struct settle *s, int cone, int adapting, int won_for_good,
                            int passing, const double *g_m, const double *g_n,
                            const int32_t *index, int64_t lo, int64_t n, int32_t *kept,
                            int64_t *counts)
{
    int64_t end = settle(s, cone, adapting, won_for_good, g_m, g_n, index, lo, n, kept, counts);
    if (!passing)
        counts[1] = 0;
    return end;
}

/* One step on a leaf whose live draws are index[0..live - 1], or all of
 * them where live < 0 (no index yet).  counts: the kernel's three counts,
 * the draws retired here that lose HSIC-NPA for good, and the live draws
 * after the step (-1: still no index). */
EXPORT void tally_step(const struct step *s, const struct leaf *leaf, int64_t live,
                       int64_t *counts)
{
    const double *g_m = leaf->g_m, *g_n = leaf->g_n;
    double *gamma = leaf->gamma;
    int32_t *index = leaf->index;
    int64_t settled[2] = {0, 0};
    if (s->retire)
        live = live < 0 ? settle(&s->bounds, s->cone, s->adapting, s->won_for_good, g_m, g_n,
                                 0, 0, leaf->size, index, settled)
                        : settle(&s->bounds, s->cone, s->adapting, s->won_for_good, g_m, g_n,
                                 index, 0, live, index, settled);
    /* the retired draws' γ, which the kernel on the index does not write */
    if (s->scheme == HSIC_PA && live >= 0) {
        if (s->passing)
            gamma_pass(s, g_m, g_n, gamma, leaf->size);
        else
            for (int64_t i = 0; i < leaf->size; i++)
                gamma[i] = 1.0;
    }
#define KERNEL(scheme, pt, shared)                                                   \
    (live < 0 ? kernel(scheme, pt, shared, s, g_m, g_n, gamma, 0, leaf->size, counts) \
              : kernel(scheme, pt, shared, s, g_m, g_n, gamma, index, live, counts))
    switch (s->scheme == HSIC_PA ? 4 + 2 * s->want_pt + s->shared : s->scheme) {
    case FSIC: KERNEL(FSIC, 0, 0); break;
    case HSIC_NPA: KERNEL(HSIC_NPA, 0, 0); break;
    case 4: KERNEL(HSIC_PA, 0, 0); break;
    case 5: KERNEL(HSIC_PA, 0, 1); break;
    case 6: KERNEL(HSIC_PA, 1, 0); break;
    default: KERNEL(HSIC_PA, 1, 1); break;
    }
#undef KERNEL
    counts[3] = settled[0];
    counts[4] = live;
}
