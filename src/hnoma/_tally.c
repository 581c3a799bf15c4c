/* The compiled tally pass of hnoma.tally, one entry point: tally_step, one
 * step of tally.tally_curve on one leaf.  It writes γ where the kernel
 * then runs on the live index only (1, or DrawKernel.gamma_pass), then
 * walks the step's draws (the leaf, or its live index) in tiles of TILE
 * draws.  Each tile's gains are copied to contiguous scratch; where the
 * step retires draws, the settle test (DrawKernel.settled) flags them and
 * the tile's positions and gains are compacted in place, in order
 * (tally._retire: builds or compacts the live index, with the floor
 * count); schemes.DrawKernel.run runs on the kept gains, with the loss
 * count, the contended-loss count (DrawKernel.contended_losses) and
 * HSIC-NPA's loss count on an HSIC-PA run (DrawKernel.npa_losses); and
 * HSIC-PA's γ is scattered back to the leaf.  It gives the leaf's γ sum as
 * numpy's pairwise sum gives it.  The probe of tally.plan_curve runs
 * DrawKernel.settled in numpy.
 *
 * Every per-draw loop but the compaction and the copies through the index
 * runs on contiguous memory, so that it vectorises.  Each draw goes
 * through DrawKernel's IEEE operations, in its order, on the same
 * operands, and the scalars that DrawKernel folds (beta * rho_n, the
 * settle bounds) come folded from Python, so every count and every γ is
 * numpy's bit for bit.  That holds only when the compiler neither
 * contracts a multiply and an add into one rounding nor reorders float
 * arithmetic: hnoma.ctally builds it with -ffp-contract=off and never with
 * -ffast-math.  The maxima and minima are numpy's, which keep a NaN.
 *
 * With gcc 11 or later on x86-64 glibc, tally_step is built three times
 * (target_clones), for x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and baseline
 * x86-64 (SSE2), and the dynamic loader runs the widest the CPU has (a GNU
 * ifunc), so one object serves every x86-64 CPU.  Every helper is
 * always_inline, so that it is built into each clone, or cloned itself
 * (settle_tile, kept out of line for speed, and the recursive
 * pairwise_sum): a plain static function would be built once, for
 * baseline x86-64.  Vector width changes no IEEE add, multiply, divide or
 * compare, nor a count: flags and counts are exact in any order.
 * Elsewhere the plain loops are built.
 */

#include <stdint.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11 \
    && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif
#define INLINE static inline __attribute__((always_inline))

enum { FSIC = 0, HSIC_NPA = 1, HSIC_PA = 2 };
/* draws per tile: a tile's gains, γ and flags take 56 KB of stack */
enum { TILE = 2048 };

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

/* The kernel on the draws 0..n - 1, for one scheme and count set: the
 * callers pass constants, so that each copy is a loop without branches.
 * acc gets the losses, the contended losses (lose, over and tau > 0; with
 * want_pt) and HSIC-NPA's losses (with shared, on an HSIC-PA run).
 * HSIC-PA writes each draw's γ. */
INLINE void
kernel(const int scheme, const int want_pt, const int shared, const struct step *s,
       const double *restrict g_m, const double *restrict g_n, double *restrict gamma,
       int64_t n, double *acc)
{
    const double rho_m = s->rho_m, eps_m = s->eps_m, beta_rho_n = s->beta_rho_n,
                 rho_n = s->rho_n;
    double hits = 0.0, pt_hits = 0.0, npa_hits = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double tau = rho_m * g_m[i];
        double denom = tau + 1.0;
        double b = beta_rho_n * g_n[i];      /* received NOMA power of U_n */
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
                gamma[i] = adapt != 0.0 ? tau / b : 1.0;
            }
            factor = over != 0.0 ? contended : one_b;
        }
        double rhs = rho_n * g_n[i];
        rhs = rhs + 1.0;
        double lose = factor * one_b <= rhs ? 1.0 : 0.0;
        if (shared)
            npa_hits += (over != 0.0 ? first_stage : one_b) * one_b <= rhs ? 1.0 : 0.0;
        hits += lose;
        if (want_pt)
            pt_hits += tau > 0.0 ? lose * over : 0.0;
    }
    acc[0] += hits;
    acc[1] += pt_hits;
    acc[2] += npa_hits;
}

/* The step's kernel on the draws 0..n - 1. */
INLINE void
run_kernel(const struct step *s, const double *restrict g_m, const double *restrict g_n,
           double *restrict gamma, int64_t n, double *acc)
{
    switch (s->scheme == HSIC_PA ? 4 + 2 * s->want_pt + s->shared : s->scheme) {
    case FSIC: kernel(FSIC, 0, 0, s, g_m, g_n, gamma, n, acc); break;
    case HSIC_NPA: kernel(HSIC_NPA, 0, 0, s, g_m, g_n, gamma, n, acc); break;
    case 4: kernel(HSIC_PA, 0, 0, s, g_m, g_n, gamma, n, acc); break;
    case 5: kernel(HSIC_PA, 0, 1, s, g_m, g_n, gamma, n, acc); break;
    case 6: kernel(HSIC_PA, 1, 0, s, g_m, g_n, gamma, n, acc); break;
    default: kernel(HSIC_PA, 1, 1, s, g_m, g_n, gamma, n, acc); break;
    }
}

/* γ of every draw 0..n - 1: 1 where tau * (rho_m g_m + 1) < b, else
 * min(tau / b, 1), NaN where tau = b = 0. */
INLINE void
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

/* The settle test on the draws 0..n - 1, for one set of tests: the callers
 * pass constants, so that each copy is a loop without branches.  keep[i]
 * is 1 where draw i is not settled; floor gets the floor-cone draws. */
INLINE void
flags(const int cone, const int adapting, const int won_for_good, const struct settle *s,
      const double *restrict g_m, const double *restrict g_n, int64_t n,
      int32_t *restrict keep, int64_t *floor)
{
    int64_t cone_draws = 0;
    for (int64_t i = 0; i < n; i++) {
        double gm = g_m[i], gn = g_n[i];
        int32_t fate = 1, won = 0;
        if (cone) {
            fate = gm * s->k_o <= gn;        /* over at every SNR */
            fate &= gn * s->k_q <= gm;       /* and losing there */
            fate &= gn >= s->floor_g_n;
        }
        if (adapting) {
            int32_t adapts = gm * s->k_o <= gn;
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
            cone_draws += fate;
        if (won_for_good) {
            double v = gn * s->k_w;
            v = v - gm * s->k_l;
            won = v >= s->up_over_rho;       /* a type-II win */
        }
        double c = gm * s->k_a;
        c = c - gn * s->beta;                /* (1 - δ)a - βg_n */
        int32_t type_i = (c >= s->up_over_rho) & (gn >= s->win_g_n);
        int32_t out = type_i | won | ((cone | adapting) & fate);
        keep[i] = !out;
    }
    *floor += cone_draws;
}

/* The settle test, by the tests a step runs. */
INLINE void
settle_flags(const struct settle *s, int cone, int adapting, int won_for_good,
             const double *restrict g_m, const double *restrict g_n, int64_t n,
             int32_t *restrict keep, int64_t *floor)
{
    switch (4 * !!cone + 2 * !!adapting + !!won_for_good) {
    case 0: flags(0, 0, 0, s, g_m, g_n, n, keep, floor); break;
    case 1: flags(0, 0, 1, s, g_m, g_n, n, keep, floor); break;
    case 2: flags(0, 1, 0, s, g_m, g_n, n, keep, floor); break;
    case 3: flags(0, 1, 1, s, g_m, g_n, n, keep, floor); break;
    case 4: flags(1, 0, 0, s, g_m, g_n, n, keep, floor); break;
    case 5: flags(1, 0, 1, s, g_m, g_n, n, keep, floor); break;
    case 6: flags(1, 1, 0, s, g_m, g_n, n, keep, floor); break;
    default: flags(1, 1, 1, s, g_m, g_n, n, keep, floor); break;
    }
}

/* The gains of the draws index[0..n - 1], copied to g_m_at and g_n_at. */
INLINE void
gather(const int32_t *restrict index, const double *restrict g_m, const double *restrict g_n,
       int64_t n, double *restrict g_m_at, double *restrict g_n_at)
{
    for (int64_t i = 0; i < n; i++) {
        g_m_at[i] = g_m[index[i]];
        g_n_at[i] = g_n[index[i]];
    }
}

/* A tile of n draws, at index[0..n - 1], or lo..lo + n - 1 where index is
 * NULL, with gains g_m[0..n - 1] and g_n[0..n - 1]: the settle test, then
 * the positions of the draws not settled go to kept[0..], in order, and
 * their gains to kept_m and kept_n.  kept may be index or lie before it,
 * and kept_m may be g_m (kept_n g_n): each write lands at or before the
 * read it follows.  Returns how many are kept.  Cloned itself, not
 * inlined: inlined into tally_step, it has measured from no faster to
 * 20-45% slower in mc_summary on fig1, fig2 and fig5a. */
static CLONES int64_t
settle_tile(const struct settle *s, int cone, int adapting, int won_for_good,
            const double *g_m, const double *g_n, const int32_t *index, int64_t lo, int64_t n,
            int32_t *kept, double *kept_m, double *kept_n, int64_t *floor)
{
    int32_t keep[TILE];
    settle_flags(s, cone, adapting, won_for_good, g_m, g_n, n, keep, floor);
    int64_t end = 0;
    for (int64_t i = 0; i < n; i++) {
        kept[end] = index ? index[i] : (int32_t)(lo + i);
        kept_m[end] = g_m[i];
        kept_n[end] = g_n[i];
        end += keep[i];
    }
    return end;
}

/* numpy's pairwise sum of a[0..n - 1] (pairwise_sum_DOUBLE): under 8
 * terms in order; up to 128 in 8 running sums, added as a tree, then the
 * rest in order; else the sums of the two halves, split at a multiple of
 * 8.  Cloned itself, since it recurses. */
static CLONES double
pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* One step on a leaf whose live draws are index[0..live - 1], or all of
 * them where live < 0 (no index yet).  counts: the kernel's three counts,
 * the draws retired here that lose HSIC-NPA for good, and the live draws
 * after the step (-1: still no index).  Returns the sum of the leaf's γ
 * as np.sum gives it on an HSIC-PA step, else the leaf's size. */
CLONES double tally_step(const struct step *s, const struct leaf *leaf, int64_t live,
                         int64_t *counts)
{
    const double *g_m = leaf->g_m, *g_n = leaf->g_n;
    double *gamma = leaf->gamma;
    int32_t *index = leaf->index;
    const int pa = s->scheme == HSIC_PA, indexed = live >= 0 || s->retire;
    const int64_t n = live < 0 ? leaf->size : live;
    /* the retired draws' γ, which the kernel on the index does not write */
    if (pa && indexed) {
        if (s->passing)
            gamma_pass(s, g_m, g_n, gamma, leaf->size);
        else
            for (int64_t i = 0; i < leaf->size; i++)
                gamma[i] = 1.0;
    }
    double g_m_at[TILE], g_n_at[TILE], gamma_at[TILE];
    double acc[3] = {0.0, 0.0, 0.0};
    int64_t floor = 0, end = 0;
    for (int64_t lo = 0; lo < n; lo += TILE) {
        int64_t size = n - lo < TILE ? n - lo : TILE;
        const double *tile_m = g_m + lo, *tile_n = g_n + lo;
        if (live >= 0) {
            gather(index + lo, g_m, g_n, size, g_m_at, g_n_at);
            tile_m = g_m_at;
            tile_n = g_n_at;
        }
        if (s->retire) {
            size = settle_tile(&s->bounds, s->cone, s->adapting, s->won_for_good, tile_m,
                               tile_n, live >= 0 ? index + lo : 0, lo, size, index + end,
                               g_m_at, g_n_at, &floor);
            tile_m = g_m_at;
            tile_n = g_n_at;
        }
        run_kernel(s, tile_m, tile_n, indexed ? gamma_at : gamma + lo, size, acc);
        if (pa && indexed)
            for (int64_t i = 0; i < size; i++)
                gamma[index[end + i]] = gamma_at[i];
        end += size;
    }
    counts[0] = (int64_t)acc[0];
    counts[1] = pa && s->want_pt ? (int64_t)acc[1] : 0;
    counts[2] = pa && s->shared ? (int64_t)acc[2] : (int64_t)acc[0];
    counts[3] = floor;
    counts[4] = indexed ? end : -1;
    return pa ? 0.0 + pairwise_sum(gamma, leaf->size) : (double)leaf->size;
}
