/* Native sequential kernels of nvpsim.
 *
 * Four float loops carry a simulation: the dormant fast-forward
 * (Capacitor.charge_many), the batched powered-on loop
 * (exactkernel.storage_run), the lockstep tick of a fleet's parked
 * rows (FleetArrays.charge_tick) and the Ornstein-Uhlenbeck recurrence
 * of the trace generators (harvest.sources._ou_process).  This file
 * holds them in C.  repro/native/reference.py holds the same
 * functions, with the same signatures, in Python: it is the fallback
 * when this file cannot be built, and the definition it is diffed
 * against.
 *
 * The bit contract: every value returned equals the reference's, bit
 * for bit.
 *  - The flags are -ffp-contract=off (no a * b + c fused into an FMA,
 *    which GCC on aarch64 and Clang do by default), never -ffast-math
 *    and never -march=native; repro/native/__init__.py passes them.
 *  - Every floating-point operation runs in the reference's order, on
 *    doubles with no excess precision (checked below).
 *  - storage_run stops before a tick whose values C cannot hold
 *    exactly: an instruction count outside int64, a NaN or infinite
 *    instruction budget, or a counter that would leave int64.  It
 *    stops there as it stops before any event tick, and the caller's
 *    scalar path runs that tick.  Counters that enter outside int64
 *    stop it before its first tick.
 *  - Where the reference raises (a trace index out of range, the
 *    square root of a negative energy), the same exception is raised
 *    at the same tick.  charge_rows' numpy twin computes NaN for a
 *    negative energy where this file raises; a fleet never holds one.
 *  - charge_rows reads and updates numpy arrays in place through the
 *    buffer protocol, and rejects any other dtype, shape or layout.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the kernels need double arithmetic without excess precision"
#endif

/* 2**63: the first double past int64. */
#define TWO63 9223372036854775808.0

/* The eight constants of Capacitor.chain(), in its order. */
typedef struct {
    double capacitance, capacity, leak_ohm, min_current;
    double eta_peak, eta_floor, v_opt, v_span;
} Chain;

/* One tick of chain_step: the energy after charge and leak, and the
 * three ledger deltas. */
typedef struct {
    double energy, charged, leaked, wasted;
} Step;

/* math.sqrt: a negative argument is Python's "math domain error". */
static inline int
checked_sqrt(double x, double *out)
{
    if (x < 0.0) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return -1;
    }
    *out = sqrt(x);
    return 0;
}

/* reference.chain_step: charge from the harvester, then leak. */
static inline int
chain_step(const Chain *c, double energy, double p_in, double dt, Step *s)
{
    double wasted = 0.0;
    double charged;
    double voltage;
    double input_energy = p_in * dt;

    if (checked_sqrt(2.0 * energy / c->capacitance, &voltage) < 0) {
        return -1;
    }
    if ((c->min_current > 0.0 && voltage > 0.0
         && p_in < c->min_current * voltage)
        || input_energy == 0.0) {
        charged = 0.0;
        wasted += input_energy;
    }
    else {
        double eta;
        double headroom;
        if (c->eta_floor == c->eta_peak) {
            eta = c->eta_peak;
        }
        else {
            double offset = (voltage - c->v_opt) / c->v_span;
            double parabola = c->eta_peak * (1.0 - offset * offset);
            /* max(eta_floor, parabola) */
            eta = parabola > c->eta_floor ? parabola : c->eta_floor;
        }
        charged = input_energy * eta;
        wasted += input_energy - charged;
        headroom = c->capacity - energy;
        if (charged > headroom) {
            wasted += charged - headroom;
            charged = headroom;
        }
        energy += charged;
    }
    if (checked_sqrt(2.0 * energy / c->capacitance, &voltage) < 0) {
        return -1;
    }
    {
        double leak = voltage * voltage / c->leak_ohm * dt;
        /* min(energy, leak) */
        double leaked = leak < energy ? leak : energy;
        s->energy = energy - leaked;
        s->charged = charged;
        s->leaked = leaked;
        s->wasted = wasted;
    }
    return 0;
}

/* p_in_w[index] as a double: a list is read in place, any other
 * sequence (a numpy array) through the sequence protocol. */
static inline int
power_at(PyObject *p_in_w, Py_ssize_t index, double *out)
{
    PyObject *item;
    if (PyList_CheckExact(p_in_w)) {
        Py_ssize_t size = PyList_GET_SIZE(p_in_w);
        Py_ssize_t at = index < 0 ? index + size : index;
        if (at < 0 || at >= size) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            return -1;
        }
        item = PyList_GET_ITEM(p_in_w, at);
        if (PyFloat_CheckExact(item)) {
            *out = PyFloat_AS_DOUBLE(item);
            return 0;
        }
        *out = PyFloat_AsDouble(item);
        return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
    }
    item = PySequence_GetItem(p_in_w, index);
    if (item == NULL) {
        return -1;
    }
    *out = PyFloat_AsDouble(item);
    Py_DECREF(item);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* obj, an int, as an int64 in *out; clears *fits when it is outside
 * int64.  Where None is allowed (present != NULL), None clears
 * *present instead.  Returns -1 on error. */
static int
read_int64(PyObject *obj, int *present, long long *out, int *fits)
{
    int overflow;
    *out = 0;
    if (present != NULL) {
        *present = obj != Py_None;
        if (!*present) {
            return 0;
        }
    }
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*out == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (overflow) {
        *fits = 0;
    }
    return 0;
}

/* Python's floor division for a positive divisor. */
static inline long long
floordiv(long long a, long long b)
{
    long long q = a / b;
    return (a % b < 0) ? q - 1 : q;
}

#define CHAIN_FORMAT "(dddddddd)"
#define CHAIN_ARGS(c)                                                   \
    &(c).capacitance, &(c).capacity, &(c).leak_ohm, &(c).min_current,  \
    &(c).eta_peak, &(c).eta_floor, &(c).v_opt, &(c).v_span

PyDoc_STRVAR(charge_many_doc,
"charge_many(p_in_w, start, stop, dt_s, chain, target, state)\n"
"--\n\n"
"Zero-load ticks until one would reach target; see reference.charge_many.");

static PyObject *
charge_many(PyObject *module, PyObject *args)
{
    PyObject *p_in_w;
    Py_ssize_t start, stop, index;
    double dt, target;
    double energy, total_charged, total_leaked, total_wasted;
    Chain c;
    Step s;
    int crossed = 0;

    if (!PyArg_ParseTuple(
            args, "Onnd" CHAIN_FORMAT "d(dddd):charge_many",
            &p_in_w, &start, &stop, &dt, CHAIN_ARGS(c), &target,
            &energy, &total_charged, &total_leaked, &total_wasted)) {
        return NULL;
    }
    for (index = start; index < stop; index++) {
        double p_in;
        if (power_at(p_in_w, index, &p_in) < 0
            || chain_step(&c, energy, p_in, dt, &s) < 0) {
            return NULL;
        }
        if (s.energy >= target) {
            crossed = 1;
            break;
        }
        energy = s.energy;
        total_charged += s.charged;
        total_leaked += s.leaked;
        total_wasted += s.wasted;
    }
    return Py_BuildValue(
        "nN(dddd)", index - start,
        PyBool_FromLong(crossed),
        energy, total_charged, total_leaked, total_wasted);
}

/* A numpy array argument as a C-contiguous buffer: kind 'd' (float64),
 * 'q' (int64) or '?' (bool) of shape (n,), or (fields, n) when fields
 * > 0.  Returns -1 with an exception set when it is anything else. */
static int
get_rows(PyObject *obj, Py_buffer *view, const char *name, char kind,
         Py_ssize_t fields, Py_ssize_t n, int writable)
{
    const char *format, *type;
    int ok;
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS
                | (writable ? PyBUF_WRITABLE : 0);

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        return -1;
    }
    format = view->format == NULL ? "B" : view->format;
    if (kind == 'q') {
        type = "int64";
        ok = view->itemsize == 8
             && (!strcmp(format, "q") || !strcmp(format, "l"));
    }
    else {
        type = kind == 'd' ? "float64" : "bool";
        ok = format[0] == kind && format[1] == '\0';
    }
    if (fields > 0) {
        ok = ok && view->ndim == 2 && view->shape[0] == fields
             && view->shape[1] == n;
    }
    else {
        ok = ok && view->ndim == 1 && view->shape[0] == n;
    }
    if (!ok) {
        PyBuffer_Release(view);
        if (fields > 0) {
            PyErr_Format(PyExc_TypeError,
                         "%s must be a C-contiguous %s array of shape "
                         "(%zd, %zd)", name, type, fields, n);
        }
        else {
            PyErr_Format(PyExc_TypeError,
                         "%s must be a C-contiguous %s array of shape (%zd,)",
                         name, type, n);
        }
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(charge_rows_doc,
"charge_rows(p, dt_s, chain, alive, target, state, pending)\n"
"--\n\n"
"One zero-load tick of every alive fleet row; see reference.charge_rows.");

static PyObject *
charge_rows(PyObject *module, PyObject *args)
{
    enum { P, CHAIN, ALIVE, TARGET, STATE, PENDING, NARRAYS };
    static const char *names[NARRAYS] = {
        "p", "chain", "alive", "target", "state", "pending"};
    static const char kinds[NARRAYS] = {'d', 'd', '?', 'd', 'd', 'q'};
    static const Py_ssize_t fields[NARRAYS] = {0, 8, 0, 0, 4, 0};
    static const int writable[NARRAYS] = {0, 0, 0, 0, 1, 1};
    PyObject *objs[NARRAYS];
    Py_buffer views[NARRAYS];
    PyObject *crossed = NULL;
    const double *p, *chain, *target;
    const char *alive;
    double *energy, *charged, *leaked, *wasted;
    long long *pending;
    double dt;
    Py_ssize_t n, i;
    int held = 0, failed = 0;

    if (!PyArg_ParseTuple(
            args, "OdOOOOO:charge_rows", &objs[P], &dt, &objs[CHAIN],
            &objs[ALIVE], &objs[TARGET], &objs[STATE], &objs[PENDING])) {
        return NULL;
    }
    n = PyObject_Length(objs[P]);
    if (n < 0) {
        return NULL;
    }
    for (; held < NARRAYS; held++) {
        if (get_rows(objs[held], &views[held], names[held], kinds[held],
                     fields[held], n, writable[held]) < 0) {
            failed = 1;
            goto done;
        }
    }
    p = views[P].buf;
    chain = views[CHAIN].buf;
    alive = views[ALIVE].buf;
    target = views[TARGET].buf;
    energy = views[STATE].buf;
    charged = energy + n;
    leaked = charged + n;
    wasted = leaked + n;
    pending = views[PENDING].buf;
    for (i = 0; i < n; i++) {
        Chain c;
        Step s;
        if (!alive[i]) {
            continue;
        }
        c.capacitance = chain[i];
        c.capacity = chain[n + i];
        c.leak_ohm = chain[2 * n + i];
        c.min_current = chain[3 * n + i];
        c.eta_peak = chain[4 * n + i];
        c.eta_floor = chain[5 * n + i];
        c.v_opt = chain[6 * n + i];
        c.v_span = chain[7 * n + i];
        if (chain_step(&c, energy[i], p[i], dt, &s) < 0) {
            failed = 1;
            goto done;
        }
        if (s.energy >= target[i]) {
            /* Discarded: the device's own tick() runs this tick. */
            PyObject *index = PyLong_FromSsize_t(i);
            if (index == NULL
                || (crossed == NULL && (crossed = PyList_New(0)) == NULL)
                || PyList_Append(crossed, index) < 0) {
                Py_XDECREF(index);
                failed = 1;
                goto done;
            }
            Py_DECREF(index);
            continue;
        }
        energy[i] = s.energy;
        charged[i] += s.charged;
        leaked[i] += s.leaked;
        wasted[i] += s.wasted;
        pending[i] += 1;
    }
done:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    if (failed) {
        Py_XDECREF(crossed);
        return NULL;
    }
    if (crossed == NULL) {
        Py_RETURN_NONE;
    }
    return crossed;
}

PyDoc_STRVAR(storage_run_doc,
"storage_run(p_in_w, start, stop, dt_s, chain, workload, stops, state)\n"
"--\n\n"
"Powered-on ticks up to the next event tick; see reference.storage_run.");

static PyObject *
storage_run(PyObject *module, PyObject *args)
{
    PyObject *p_in_w, *state;
    PyObject *limit_obj, *ipu_obj, *period_limit_obj, *period_count_obj;
    PyObject *retired_obj, *volatile_obj;
    Py_ssize_t start, stop, index;
    double dt, tpi, epi, threshold;
    double energy, total_charged, total_leaked, total_wasted;
    double total_delivered, consumed, stall, credit;
    long long limit, ipu, period_limit, period_count, retired, volatile_;
    int has_limit, has_period, unit_boundary;
    int fits = 1;
    Chain c;

    if (!PyArg_ParseTuple(
            args, "Onnd" CHAIN_FORMAT "(ddOO)(dOOp)O!:storage_run",
            &p_in_w, &start, &stop, &dt, CHAIN_ARGS(c),
            &tpi, &epi, &limit_obj, &ipu_obj,
            &threshold, &period_limit_obj, &period_count_obj,
            &unit_boundary, &PyTuple_Type, &state)
        || !PyArg_ParseTuple(
            state, "ddddddddOO:state",
            &energy, &total_charged, &total_leaked, &total_wasted,
            &total_delivered, &consumed, &stall, &credit,
            &retired_obj, &volatile_obj)
        || read_int64(limit_obj, &has_limit, &limit, &fits) < 0
        || read_int64(ipu_obj, NULL, &ipu, &fits) < 0
        || read_int64(period_limit_obj, &has_period, &period_limit, &fits) < 0
        || read_int64(period_count_obj, NULL, &period_count, &fits) < 0
        || read_int64(retired_obj, NULL, &retired, &fits) < 0
        || read_int64(volatile_obj, NULL, &volatile_, &fits) < 0) {
        return NULL;
    }
    if (!fits || ipu < 1) {
        /* Not an int64 (or no valid unit size): every tick stays scalar. */
        return Py_BuildValue("nO", (Py_ssize_t)0, state);
    }

    for (index = start; index < stop; index++) {
        double exec_budget, new_stall, budget, instructions;
        double time_used, rem, new_credit, load_w;
        double p_in, new_energy, demand, delivered;
        long long count, reached, period_reached, new_volatile;
        Step s;

        if (energy <= threshold) {
            break;
        }
        exec_budget = dt - stall;
        if (exec_budget < 0.0) {
            exec_budget = 0.0;
        }
        new_stall = stall - dt;
        if (new_stall < 0.0) {
            new_stall = 0.0;
        }
        budget = exec_budget + credit;
        instructions = budget / tpi;
        if (!(instructions >= -TWO63 && instructions < TWO63)) {
            break;
        }
        count = (long long)instructions;
        if (__builtin_add_overflow(retired, count, &reached)
            || __builtin_add_overflow(period_count, count, &period_reached)
            || __builtin_add_overflow(volatile_, count, &new_volatile)) {
            break;
        }
        if (has_limit && reached >= limit) {
            break;
        }
        if (has_period && period_reached >= period_limit) {
            break;
        }
        if (unit_boundary && count
            && floordiv(reached, ipu) > floordiv(retired, ipu)) {
            break;
        }
        time_used = (double)count * tpi;
        rem = budget - time_used;
        new_credit = rem < tpi ? rem : tpi;
        load_w = ((double)count * epi) / dt;

        if (power_at(p_in_w, index, &p_in) < 0
            || chain_step(&c, energy, p_in, dt, &s) < 0) {
            return NULL;
        }
        new_energy = s.energy;
        demand = load_w * dt;
        delivered = demand < new_energy ? demand : new_energy;
        if (delivered < demand - 1e-18) {
            break;
        }
        new_energy -= delivered;

        energy = new_energy;
        stall = new_stall;
        credit = new_credit;
        retired = reached;
        volatile_ = new_volatile;
        period_count = period_reached;
        consumed += delivered;
        total_charged += s.charged;
        total_leaked += s.leaked;
        total_wasted += s.wasted;
        total_delivered += delivered;
    }
    if (index == start) {
        return Py_BuildValue("nO", (Py_ssize_t)0, state);
    }
    return Py_BuildValue(
        "n(ddddddddLL)", index - start,
        energy, total_charged, total_leaked, total_wasted,
        total_delivered, consumed, stall, credit, retired, volatile_);
}

PyDoc_STRVAR(ou_walk_doc,
"ou_walk(steps, alpha, x0)\n"
"--\n\n"
"The OU recurrence in place on float64 steps; see reference.ou_walk.");

static PyObject *
ou_walk(PyObject *module, PyObject *args)
{
    PyObject *steps;
    double alpha, value;
    Py_buffer view;
    double *data;
    Py_ssize_t n, i;

    if (!PyArg_ParseTuple(args, "Odd:ou_walk", &steps, &alpha, &value)) {
        return NULL;
    }
    if (PyObject_GetBuffer(steps, &view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS)
        < 0) {
        return NULL;
    }
    if (view.ndim != 1 || view.itemsize != sizeof(double)
        || view.format == NULL || strcmp(view.format, "d") != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError,
                        "steps must be a 1-D float64 buffer");
        return NULL;
    }
    data = (double *)view.buf;
    n = view.shape[0];
    for (i = 0; i < n; i++) {
        value = alpha * value + data[i];
        data[i] = value;
    }
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"charge_many", charge_many, METH_VARARGS, charge_many_doc},
    {"charge_rows", charge_rows, METH_VARARGS, charge_rows_doc},
    {"storage_run", storage_run, METH_VARARGS, storage_run_doc},
    {"ou_walk", ou_walk, METH_VARARGS, ou_walk_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels",
    "nvpsim's sequential kernels in C; see repro.native.reference.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL
        && PyModule_AddStringConstant(module, "BACKEND", "native") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
