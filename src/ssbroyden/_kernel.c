/* ssbroyden.updates.apply_update as one pass over H, each operation in the
 * order its docstring fixes and rounded once (no contraction, no fast-math).
 * The phi and tau cases are loop-invariant flags; -O3 unswitches the loop
 * on them, and a weight is formed only on the path that uses it. */
#include <fenv.h>
#include <stddef.h>

/* Returns the IEEE flags raised: 1 divide by zero, 2 overflow, 4 underflow, 8 invalid. */
int rank_two_update(double *H, ptrdiff_t n, const double *s, const double *hy,
                    const double *v, double rho, double yhy, double phi, double tau)
{
    const int bfgs = phi == 1.0, with_v = phi != 0.0 && !bfgs, scaled = tau != 1.0;
    feclearexcept(FE_ALL_EXCEPT);
    const double weight = bfgs ? rho * rho * yhy : with_v ? phi * yhy : 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = H + i * n;
        const double si = s[i], hyi = hy[i], vi = with_v ? v[i] : 0.0;
        for (ptrdiff_t k = 0; k < n; k++) {
            double o;
            if (bfgs) {
                o = row[k] - (si * hy[k] + hyi * s[k]) * rho + (si * s[k]) * weight;
            } else {
                o = row[k] - (hyi * hy[k]) / yhy;
                if (with_v)
                    o = o + (vi * v[k]) * weight;
            }
            if (scaled)
                o = o / tau;
            row[k] = o + (si * s[k]) * rho;
        }
    }
    const int raised = fetestexcept(FE_ALL_EXCEPT);
    return !!(raised & FE_DIVBYZERO) | !!(raised & FE_OVERFLOW) << 1
           | !!(raised & FE_UNDERFLOW) << 2 | !!(raised & FE_INVALID) << 3;
}
