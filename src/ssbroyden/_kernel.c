/* ssbroyden.updates.apply_update as one pass over H, each operation in the
 * order its docstring fixes and rounded once (no contraction, no fast-math).
 * The phi and tau cases are loop-invariant flags; -O3 unswitches the loop
 * on them, and a weight is formed only on the path that uses it.
 *
 * On x86-64 with glibc the loop is built twice, for AVX2 and for baseline
 * x86-64, and the loader's ifunc picks the copy the CPU runs.  The loop
 * makes no reduction, so both give every element the same IEEE operations
 * in the same order: the same bits. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <fenv.h>
#include <stddef.h>
#include <string.h>

/* Forms v = s / ys - hy / yhy in the scratch v where phi is neither 0 nor 1,
 * then writes H' over H.  Returns the IEEE flags raised by both: 1 divide by
 * zero, 2 overflow, 4 underflow, 8 invalid. */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("avx2", "default")))
#endif
static int update_loop(double *H, ptrdiff_t n, const double *s, const double *hy, double *v,
                       double ys, double rho, double yhy, double phi, double tau)
{
    const int bfgs = phi == 1.0, with_v = phi != 0.0 && !bfgs, scaled = tau != 1.0;
    feclearexcept(FE_ALL_EXCEPT);
    if (with_v)
        for (ptrdiff_t i = 0; i < n; i++)
            v[i] = s[i] / ys - hy[i] / yhy;
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

/* Takes a view of obj, a C-contiguous float64 block of ndim dimensions,
 * each of length n (n < 0: any, and sets n).  Returns 0, or -1 with no view
 * held and the error cleared, so the caller raises one ValueError. */
static int get_block(PyObject *obj, Py_buffer *view, int flags, int ndim, Py_ssize_t *n)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return -1;
    }
    int ok = view->ndim == ndim && view->itemsize == sizeof(double)
             && view->format != NULL && strcmp(view->format, "d") == 0;
    if (ok && *n < 0)
        *n = view->shape[0];
    for (int d = 0; ok && d < ndim; d++)
        ok = view->shape[d] == *n;
    if (!ok) {
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* rank_two_update(H, s, Hy, ys, rho, yHy, phi, tau) -> flags */
static PyObject *rank_two_update(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError, "rank_two_update takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    double scalars[5];
    for (int j = 0; j < 5; j++) {
        scalars[j] = PyFloat_AsDouble(args[3 + j]);
        if (scalars[j] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    /* s fixes n.  The views start zeroed: a refused PyObject_GetBuffer leaves
     * obj NULL, and releasing such a view does nothing, so all paths share one exit. */
    Py_buffer h = {0}, s = {0}, hy = {0};
    Py_ssize_t n = -1;
    PyObject *result = NULL;
    if (get_block(args[1], &s, PyBUF_SIMPLE, 1, &n) < 0
        || get_block(args[2], &hy, PyBUF_SIMPLE, 1, &n) < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "apply_update needs C-contiguous float64 s and Hy of one length n");
    } else if (get_block(args[0], &h, PyBUF_WRITABLE, 2, &n) < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "apply_update needs a C-contiguous, writeable float64 (n, n) H");
    } else {
        double *v = PyMem_Malloc(n * sizeof(double));
        int raised = -1;
        if (v != NULL) {
            Py_BEGIN_ALLOW_THREADS
            raised = update_loop(h.buf, n, s.buf, hy.buf, v, scalars[0], scalars[1],
                                 scalars[2], scalars[3], scalars[4]);
            Py_END_ALLOW_THREADS
            PyMem_Free(v);
        }
        result = raised < 0 ? PyErr_NoMemory() : PyLong_FromLong(raised);
    }
    PyBuffer_Release(&h);
    PyBuffer_Release(&s);
    PyBuffer_Release(&hy);
    return result;
}

static PyMethodDef methods[] = {
    {"rank_two_update", (PyCFunction)(void (*)(void))rank_two_update, METH_FASTCALL,
     "rank_two_update(H, s, Hy, ys, rho, yHy, phi, tau) -> IEEE flags raised\n\n"
     "Writes H' over H."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, 0, methods};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
