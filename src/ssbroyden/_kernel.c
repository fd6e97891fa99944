/* ssbroyden.updates.apply_update as one pass over H, each operation in the
 * order its docstring fixes and rounded once (no contraction, no fast-math).
 * Each loop is inlined with constant flags, one copy per phi and tau case. */
#include <fenv.h>
#include <stddef.h>

#define ROWS static inline __attribute__((always_inline)) void

ROWS bfgs_rows(double *H, ptrdiff_t n, const double *s, const double *hy,
               double rho, double ss_weight, double tau, int scaled)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = H + i * n;
        const double si = s[i], hyi = hy[i];
        for (ptrdiff_t k = 0; k < n; k++) {
            const double ss = si * s[k];
            double o = row[k] - (si * hy[k] + hyi * s[k]) * rho + ss * ss_weight;
            if (scaled)
                o = o / tau;
            row[k] = o + ss * rho;
        }
    }
}

ROWS general_rows(double *H, ptrdiff_t n, const double *s, const double *hy,
                  const double *v, double rho, double yhy, double vv_weight,
                  double tau, int with_v, int scaled)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = H + i * n;
        const double si = s[i], hyi = hy[i], vi = with_v ? v[i] : 0.0;
        for (ptrdiff_t k = 0; k < n; k++) {
            double o = row[k] - (hyi * hy[k]) / yhy;
            if (with_v)
                o = o + (vi * v[k]) * vv_weight;
            if (scaled)
                o = o / tau;
            row[k] = o + (si * s[k]) * rho;
        }
    }
}

/* Returns the IEEE flags raised: 1 divide by zero, 2 overflow, 4 underflow, 8 invalid. */
int rank_two_update(double *H, ptrdiff_t n, const double *s, const double *hy,
                    const double *v, double rho, double yhy, double phi, double tau)
{
    feclearexcept(FE_ALL_EXCEPT);
    if (phi == 1.0)
        tau != 1.0 ? bfgs_rows(H, n, s, hy, rho, rho * rho * yhy, tau, 1)
                   : bfgs_rows(H, n, s, hy, rho, rho * rho * yhy, tau, 0);
    else if (phi == 0.0)
        tau != 1.0 ? general_rows(H, n, s, hy, v, rho, yhy, 0.0, tau, 0, 1)
                   : general_rows(H, n, s, hy, v, rho, yhy, 0.0, tau, 0, 0);
    else
        tau != 1.0 ? general_rows(H, n, s, hy, v, rho, yhy, phi * yhy, tau, 1, 1)
                   : general_rows(H, n, s, hy, v, rho, yhy, phi * yhy, tau, 1, 0);
    const int raised = fetestexcept(FE_ALL_EXCEPT);
    return !!(raised & FE_DIVBYZERO) | !!(raised & FE_OVERFLOW) << 1
           | !!(raised & FE_UNDERFLOW) << 2 | !!(raised & FE_INVALID) << 3;
}
