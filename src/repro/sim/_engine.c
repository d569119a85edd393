/* Compiled hot path for the discrete-event engine.
 *
 * This module is the optional C twin of repro/sim/engine.py: an
 * ``Engine`` type implementing the same calendar-queue event loop
 * (one bucket per exact timestamp, a C double min-heap over the
 * distinct times, whole-bucket batch dispatch).
 *
 * Behavioural contract: bit-for-bit identical event order and
 * arithmetic versus the pure-Python implementations. Every float
 * computation here is the same IEEE-double expression evaluated in the
 * same order as the Python source (CPython floats *are* C doubles), and
 * the (time, seq) total order is preserved by construction: seq is
 * assigned monotonically, so bucket append order is seq order.
 * tests/test_eventq.py pins the equivalence.
 *
 * Build: optional — ``python setup.py build_ext --inplace`` (or
 * ``SFS_BUILD_EXT=1 pip install -e .``). The pure-Python engine is the
 * always-available fallback; repro/sim/engine.py selects at import per
 * the SFS_ENGINE policy.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* Raise `exc` with a printf-style message whose %R slots are two C
 * doubles (PyErr_Format has no float directive). */
static void
raise_with_two_doubles(PyObject *exc, const char *fmt, double a, double b)
{
    PyObject *ao = PyFloat_FromDouble(a);
    PyObject *bo = PyFloat_FromDouble(b);
    if (ao != NULL && bo != NULL)
        PyErr_Format(exc, fmt, ao, bo);
    Py_XDECREF(ao);
    Py_XDECREF(bo);
}

/* ------------------------------------------------------------------ */
/* EventHandle                                                         */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *fn;
    PyObject *args;    /* always a tuple */
    int cancelled;
    PyObject *engine;  /* strong ref while live; NULL once fired/cancelled */
} HandleObject;

static PyTypeObject Handle_Type; /* forward */

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long fired;
    long long live;
    PyObject *buckets;   /* dict: float time -> list[EventHandle] (seq order) */
    double *times;       /* C binary min-heap of the distinct bucket times */
    Py_ssize_t times_len;
    Py_ssize_t times_cap;
    PyObject *head;      /* bucket being drained one event at a time, or NULL */
    Py_ssize_t head_pos;
    double head_time;
} EngineObject;

static PyTypeObject Engine_Type; /* forward */

static void
Handle_dealloc(HandleObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->fn);
    Py_XDECREF(self->args);
    Py_XDECREF(self->engine);
    PyObject_GC_Del(self);
}

static int
Handle_traverse(HandleObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT(self->engine);
    return 0;
}

static int
Handle_clear(HandleObject *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->engine);
    return 0;
}

static PyObject *
Handle_cancel(HandleObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->cancelled) {
        self->cancelled = 1;
        if (self->engine != NULL) {
            ((EngineObject *)self->engine)->live--;
            Py_CLEAR(self->engine);
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Handle_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT ||
        !PyObject_TypeCheck(a, &Handle_Type) ||
        !PyObject_TypeCheck(b, &Handle_Type)) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    HandleObject *ha = (HandleObject *)a, *hb = (HandleObject *)b;
    int lt = (ha->time < hb->time) ||
             (ha->time == hb->time && ha->seq < hb->seq);
    return PyBool_FromLong(lt);
}

static PyObject *
Handle_repr(HandleObject *self)
{
    PyObject *t = PyFloat_FromDouble(self->time);
    if (t == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "<EventHandle t=%R (%s)>", t,
        self->cancelled ? "cancelled" : "pending");
    Py_DECREF(t);
    return r;
}

static PyObject *
Handle_get_cancelled(HandleObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyMemberDef Handle_members[] = {
    {"time", T_DOUBLE, offsetof(HandleObject, time), READONLY,
     "absolute fire time"},
    {"seq", T_LONGLONG, offsetof(HandleObject, seq), READONLY,
     "monotonic scheduling serial (FIFO tie-break)"},
    {"fn", T_OBJECT_EX, offsetof(HandleObject, fn), READONLY,
     "the scheduled callable"},
    {"args", T_OBJECT_EX, offsetof(HandleObject, args), READONLY,
     "positional arguments for fn"},
    {NULL}
};

static PyGetSetDef Handle_getset[] = {
    {"cancelled", (getter)Handle_get_cancelled, NULL,
     "whether cancel() was called before the event fired", NULL},
    {NULL}
};

static PyMethodDef Handle_methods[] = {
    {"cancel", (PyCFunction)Handle_cancel, METH_NOARGS,
     "Prevent the event from firing (no-op if already fired)."},
    {NULL}
};

static PyTypeObject Handle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._engine.EventHandle",
    .tp_basicsize = sizeof(HandleObject),
    .tp_dealloc = (destructor)Handle_dealloc,
    .tp_repr = (reprfunc)Handle_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Handle to a scheduled event; allows O(1) cancellation.",
    .tp_traverse = (traverseproc)Handle_traverse,
    .tp_clear = (inquiry)Handle_clear,
    .tp_richcompare = Handle_richcompare,
    .tp_methods = Handle_methods,
    .tp_members = Handle_members,
    .tp_getset = Handle_getset,
};

/* ------------------------------------------------------------------ */
/* Engine: the C double min-heap of distinct bucket times              */
/* ------------------------------------------------------------------ */

static int
times_push(EngineObject *self, double v)
{
    if (self->times_len == self->times_cap) {
        Py_ssize_t cap = self->times_cap ? self->times_cap * 2 : 64;
        double *grown = PyMem_Realloc(self->times, cap * sizeof(double));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->times = grown;
        self->times_cap = cap;
    }
    double *a = self->times;
    Py_ssize_t i = self->times_len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (a[parent] <= v)
            break;
        a[i] = a[parent];
        i = parent;
    }
    a[i] = v;
    return 0;
}

static double
times_pop(EngineObject *self)
{
    double *a = self->times;
    double top = a[0];
    double last = a[--self->times_len];
    Py_ssize_t n = self->times_len;
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && a[child + 1] < a[child])
            child++;
        if (last <= a[child])
            break;
        a[i] = a[child];
        i = child;
    }
    if (n > 0)
        a[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Engine type                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if ((args != NULL && PyTuple_GET_SIZE(args) > 0) ||
        (kwds != NULL && PyDict_GET_SIZE(kwds) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "the compiled Engine takes no arguments");
        return NULL;
    }
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->seq = 0;
    self->fired = 0;
    self->live = 0;
    self->buckets = PyDict_New();
    if (self->buckets == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->times = NULL;
    self->times_len = 0;
    self->times_cap = 0;
    self->head = NULL;
    self->head_pos = 0;
    self->head_time = INFINITY;
    return (PyObject *)self;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->buckets);
    Py_XDECREF(self->head);
    PyMem_Free(self->times);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->buckets);
    Py_VISIT(self->head);
    return 0;
}

static int
Engine_clear_gc(EngineObject *self)
{
    Py_CLEAR(self->buckets);
    Py_CLEAR(self->head);
    return 0;
}

/* Queue a freshly created handle: O(1) into an existing same-time
 * bucket, O(log B) when the timestamp is new (B = distinct times). */
static int
engine_push(EngineObject *self, HandleObject *handle)
{
    PyObject *key = PyFloat_FromDouble(handle->time);
    if (key == NULL)
        return -1;
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
    if (bucket != NULL) {
        int rc = PyList_Append(bucket, (PyObject *)handle);
        Py_DECREF(key);
        return rc;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    bucket = PyList_New(1);
    if (bucket == NULL) {
        Py_DECREF(key);
        return -1;
    }
    Py_INCREF(handle);
    PyList_SET_ITEM(bucket, 0, (PyObject *)handle);
    int rc = PyDict_SetItem(self->buckets, key, bucket);
    Py_DECREF(bucket);
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    return times_push(self, handle->time);
}

static PyObject *
engine_schedule_common(EngineObject *self, double when, PyObject *args,
                       Py_ssize_t first_arg)
{
    /* `!(when >= now)` rejects both the past and NaN with one test,
     * mirroring PyEngine.schedule_at. */
    if (!(when >= self->now)) {
        raise_with_two_doubles(PyExc_ValueError,
                               "cannot schedule event in the past: "
                               "%R < now %R", when, self->now);
        return NULL;
    }
    PyObject *fn = PyTuple_GET_ITEM(args, first_arg - 1);
    PyObject *rest = PyTuple_GetSlice(args, first_arg,
                                      PyTuple_GET_SIZE(args));
    if (rest == NULL)
        return NULL;
    HandleObject *handle = PyObject_GC_New(HandleObject, &Handle_Type);
    if (handle == NULL) {
        Py_DECREF(rest);
        return NULL;
    }
    handle->time = when;
    handle->seq = self->seq;
    Py_INCREF(fn);
    handle->fn = fn;
    handle->args = rest; /* stolen */
    handle->cancelled = 0;
    Py_INCREF(self);
    handle->engine = (PyObject *)self;
    PyObject_GC_Track(handle);
    self->seq++;
    self->live++;
    if (engine_push(self, handle) < 0) {
        /* roll back so the failed schedule leaves no trace */
        self->live--;
        Py_CLEAR(handle->engine);
        Py_DECREF(handle);
        return NULL;
    }
    return (PyObject *)handle;
}

PyDoc_STRVAR(schedule_at_doc,
"schedule_at(when, fn, *args) -> EventHandle\n\n"
"Schedule fn(*args) to fire at absolute time `when`. Raises ValueError\n"
"if `when` is in the past (or NaN); simultaneous events fire in\n"
"scheduling order.");

static PyObject *
Engine_schedule_at(EngineObject *self, PyObject *args)
{
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() requires (when, fn, *args)");
        return NULL;
    }
    double when = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    return engine_schedule_common(self, when, args, 2);
}

PyDoc_STRVAR(schedule_after_doc,
"schedule_after(delay, fn, *args) -> EventHandle\n\n"
"Schedule fn(*args) to fire `delay` seconds from now (delay >= 0).");

static PyObject *
Engine_schedule_after(EngineObject *self, PyObject *args)
{
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_after() requires (delay, fn, *args)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        raise_with_two_doubles(PyExc_ValueError,
                               "delay must be >= 0, got %R", delay, 0.0);
        return NULL;
    }
    return engine_schedule_common(self, self->now + delay, args, 2);
}

/* Pop the earliest bucket with time <= bound. Returns a NEW reference
 * to the batch list (possibly a tail slice of a partially drained
 * head), or NULL with no exception set when nothing is due, or NULL
 * with an exception set on (allocation) failure. The batch may be
 * entirely cancelled — the caller skips those. */
static PyObject *
engine_next_batch(EngineObject *self, double bound)
{
    if (self->head != NULL) {
        if (self->head_time > bound)
            return NULL;
        PyObject *batch;
        if (self->head_pos == 0) {
            batch = self->head;
            self->head = NULL;
        }
        else {
            batch = PyList_GetSlice(self->head, self->head_pos,
                                    PyList_GET_SIZE(self->head));
            Py_CLEAR(self->head);
            if (batch == NULL)
                return NULL;
        }
        return batch;
    }
    if (self->times_len == 0 || self->times[0] > bound)
        return NULL;
    double when = times_pop(self);
    PyObject *key = PyFloat_FromDouble(when);
    if (key == NULL)
        return NULL;
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
    if (bucket == NULL) {
        /* impossible by construction: every heap time has a bucket */
        Py_DECREF(key);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "calendar-queue invariant violated: "
                            "heap time with no bucket");
        return NULL;
    }
    Py_INCREF(bucket);
    if (PyDict_DelItem(self->buckets, key) < 0) {
        Py_DECREF(bucket);
        Py_DECREF(key);
        return NULL;
    }
    Py_DECREF(key);
    return bucket;
}

/* Fire every event with time <= bound, batch by batch. On a callback
 * exception the unfired tail of the current batch becomes the new head
 * bucket, so the queue looks as if those events were never popped. */
static int
engine_drain(EngineObject *self, double bound)
{
    for (;;) {
        PyObject *batch = engine_next_batch(self, bound);
        if (batch == NULL)
            return PyErr_Occurred() ? -1 : 0;
        Py_ssize_t n = PyList_GET_SIZE(batch);
        Py_ssize_t i;
        int any_live = 0;
        for (i = 0; i < n; i++) {
            if (!((HandleObject *)PyList_GET_ITEM(batch, i))->cancelled) {
                any_live = 1;
                break;
            }
        }
        if (!any_live) { /* bucket was entirely cancelled: skip it */
            Py_DECREF(batch);
            continue;
        }
        self->now = ((HandleObject *)PyList_GET_ITEM(batch, 0))->time;
        for (i = 0; i < n; i++) {
            HandleObject *h = (HandleObject *)PyList_GET_ITEM(batch, i);
            if (h->cancelled)
                continue;
            /* Counters move before the callback runs, exactly as in
             * step(): a callback reading `pending` or `events_fired`
             * must see the same values on either code path. */
            self->fired++;
            self->live--;
            Py_CLEAR(h->engine);
            PyObject *res = PyObject_CallObject(h->fn, h->args);
            if (res == NULL) {
                if (i + 1 < n) {
                    self->head = batch; /* steal our batch reference */
                    self->head_pos = i + 1;
                    self->head_time = self->now;
                }
                else {
                    Py_DECREF(batch);
                }
                return -1;
            }
            Py_DECREF(res);
        }
        Py_DECREF(batch);
    }
}

/* Fire the single next pending event. Returns 1 if one fired, 0 if the
 * queue is empty, -1 on exception. */
static int
engine_step_inner(EngineObject *self)
{
    for (;;) {
        if (self->head == NULL) {
            if (self->times_len == 0)
                return 0;
            double when = times_pop(self);
            PyObject *key = PyFloat_FromDouble(when);
            if (key == NULL)
                return -1;
            PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
            if (bucket == NULL) {
                Py_DECREF(key);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_RuntimeError,
                                    "calendar-queue invariant violated: "
                                    "heap time with no bucket");
                return -1;
            }
            Py_INCREF(bucket);
            if (PyDict_DelItem(self->buckets, key) < 0) {
                Py_DECREF(bucket);
                Py_DECREF(key);
                return -1;
            }
            Py_DECREF(key);
            self->head = bucket;
            self->head_pos = 0;
            self->head_time = when;
        }
        PyObject *head = self->head;
        Py_ssize_t size = PyList_GET_SIZE(head);
        Py_ssize_t pos = self->head_pos;
        while (pos < size) {
            HandleObject *h = (HandleObject *)PyList_GET_ITEM(head, pos);
            pos++;
            if (h->cancelled)
                continue;
            Py_INCREF(h); /* keep h alive if we drop the head list */
            if (pos == size)
                Py_CLEAR(self->head);
            else
                self->head_pos = pos;
            self->now = h->time;
            self->fired++;
            self->live--;
            Py_CLEAR(h->engine);
            PyObject *res = PyObject_CallObject(h->fn, h->args);
            Py_DECREF(h);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return 1;
        }
        Py_CLEAR(self->head);
    }
}

PyDoc_STRVAR(step_doc,
"step() -> bool\n\n"
"Fire the next pending event. Returns False if the queue is empty.");

static PyObject *
Engine_step(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    int rc = engine_step_inner(self);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

PyDoc_STRVAR(run_until_doc,
"run_until(t_end)\n\n"
"Process all events with time <= t_end; leave now == t_end. Events\n"
"scheduled exactly at t_end do fire. Raises ValueError if t_end is in\n"
"the past (or NaN).");

static PyObject *
Engine_run_until(EngineObject *self, PyObject *arg)
{
    double t_end = PyFloat_AsDouble(arg);
    if (t_end == -1.0 && PyErr_Occurred())
        return NULL;
    /* `!(t_end >= now)` rejects both the past and NaN with one test,
     * mirroring PyEngine.run_until. */
    if (!(t_end >= self->now)) {
        raise_with_two_doubles(PyExc_ValueError,
                               "t_end %R is in the past (now=%R)",
                               t_end, self->now);
        return NULL;
    }
    if (engine_drain(self, t_end) < 0)
        return NULL;
    self->now = t_end;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(run_doc,
"run(max_events=None) -> int\n\n"
"Run until the event queue is empty. `max_events` bounds the number of\n"
"events fired (a safety valve for workloads that regenerate events\n"
"forever). Returns the number of events fired by this call.");

static PyObject *
Engine_run(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"max_events", NULL};
    PyObject *max_events = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &max_events))
        return NULL;
    if (max_events == Py_None) {
        long long before = self->fired;
        if (engine_drain(self, INFINITY) < 0)
            return NULL;
        return PyLong_FromLongLong(self->fired - before);
    }
    long long cap = PyLong_AsLongLong(max_events);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    long long fired = 0;
    while (fired < cap) {
        int rc = engine_step_inner(self);
        if (rc < 0)
            return NULL;
        if (rc == 0)
            break;
        fired++;
    }
    return PyLong_FromLongLong(fired);
}

static PyObject *
Engine_get_now(EngineObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Engine_get_events_fired(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->fired);
}

static PyObject *
Engine_get_pending(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->live);
}

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {"events_fired", (getter)Engine_get_events_fired, NULL,
     "Number of events processed so far (instrumentation).", NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Number of not-yet-fired, not-cancelled events - O(1).", NULL},
    {NULL}
};

static PyMethodDef Engine_methods[] = {
    {"schedule_at", (PyCFunction)Engine_schedule_at, METH_VARARGS,
     schedule_at_doc},
    {"schedule_after", (PyCFunction)Engine_schedule_after, METH_VARARGS,
     schedule_after_doc},
    {"step", (PyCFunction)Engine_step, METH_NOARGS, step_doc},
    {"run_until", (PyCFunction)Engine_run_until, METH_O, run_until_doc},
    {"run", (PyCFunction)Engine_run, METH_VARARGS | METH_KEYWORDS, run_doc},
    {NULL}
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._engine.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Discrete-event simulation clock and calendar event queue "
              "(compiled). Behaviourally identical to "
              "repro.sim.engine.PyEngine.",
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear_gc,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
    .tp_new = Engine_new,
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static struct PyModuleDef enginemodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._engine",
    .m_doc = "Compiled calendar-queue event engine (optional; "
             "pure-Python fallback in repro.sim.engine).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__engine(void)
{
    if (PyType_Ready(&Handle_Type) < 0 || PyType_Ready(&Engine_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&enginemodule);
    if (m == NULL)
        return NULL;
    Py_INCREF(&Engine_Type);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&Engine_Type) < 0) {
        Py_DECREF(&Engine_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&Handle_Type);
    if (PyModule_AddObject(m, "EventHandle", (PyObject *)&Handle_Type) < 0) {
        Py_DECREF(&Handle_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
