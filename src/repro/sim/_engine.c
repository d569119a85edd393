/* Compiled hot path for the discrete-event engine.
 *
 * This module is the optional C twin of repro/sim/engine.py: an
 * ``Engine`` type implementing the same calendar-queue event loop
 * (one bucket per exact timestamp, a C double min-heap over the
 * distinct times, whole-bucket batch dispatch), the same loaded run
 * of build-time events beside it (a C double array of times and a list
 * of arguments) and the same timer slots (a C array of (time, seq,
 * callback) entries, one per processor), all merged with the queue in
 * engine_queue_bound.
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

/* A timer slot: fn(*args) fires at (time, seq); seq is -1 while the
 * slot is disarmed. */
typedef struct {
    double time;
    long long seq;
    PyObject *fn;
    PyObject *args;    /* always a tuple */
} Slot;

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
    PyObject *head;      /* the unfired tail of a popped batch, or NULL */
    Py_ssize_t head_pos;
    double head_time;
    /* the loaded run: loaded_fn(loaded_args[i]) fires at loaded_times[i],
     * for loaded_pos <= i < loaded_len */
    double *loaded_times;
    PyObject *loaded_args; /* list, or NULL before the first load */
    PyObject *loaded_fn;
    Py_ssize_t loaded_pos;
    Py_ssize_t loaded_len;
    Slot *slots;
    Py_ssize_t nslots;
    Py_ssize_t slots_cap;
    Py_ssize_t armed;
    /* the earliest armed slot by (time, seq); -1 and NaN (which compares
     * false with everything) while none is armed */
    Py_ssize_t first;
    double first_time;
    long long first_seq;
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
    self->loaded_times = NULL;
    self->loaded_args = NULL;
    self->loaded_fn = NULL;
    self->loaded_pos = 0;
    self->loaded_len = 0;
    self->slots = NULL;
    self->nslots = 0;
    self->slots_cap = 0;
    self->armed = 0;
    self->first = -1;
    self->first_time = NAN;
    self->first_seq = -1;
    return (PyObject *)self;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->buckets);
    Py_XDECREF(self->head);
    Py_XDECREF(self->loaded_args);
    Py_XDECREF(self->loaded_fn);
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        Py_XDECREF(self->slots[i].fn);
        Py_XDECREF(self->slots[i].args);
    }
    PyMem_Free(self->times);
    PyMem_Free(self->loaded_times);
    PyMem_Free(self->slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->buckets);
    Py_VISIT(self->head);
    Py_VISIT(self->loaded_args);
    Py_VISIT(self->loaded_fn);
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        Py_VISIT(self->slots[i].fn);
        Py_VISIT(self->slots[i].args);
    }
    return 0;
}

static int
Engine_clear_gc(EngineObject *self)
{
    Py_CLEAR(self->buckets);
    Py_CLEAR(self->head);
    Py_CLEAR(self->loaded_args);
    Py_CLEAR(self->loaded_fn);
    self->loaded_pos = self->loaded_len = 0;
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        Py_CLEAR(self->slots[i].fn);
        Py_CLEAR(self->slots[i].args);
    }
    self->nslots = 0;
    self->armed = 0;
    self->first = -1;
    self->first_time = NAN;
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

/* ------------------------------------------------------------------ */
/* Engine: timer slots                                                 */
/* ------------------------------------------------------------------ */

/* Point the merge at the earliest armed slot, by (time, seq). */
static void
engine_find_first_slot(EngineObject *self)
{
    Py_ssize_t first = -1;
    double first_time = NAN;
    long long first_seq = -1;
    for (Py_ssize_t i = 0; i < self->nslots; i++) {
        Slot *s = &self->slots[i];
        if (s->seq < 0)
            continue;
        if (first < 0 || s->time < first_time ||
            (s->time == first_time && s->seq < first_seq)) {
            first = i;
            first_time = s->time;
            first_seq = s->seq;
        }
    }
    self->first = first;
    self->first_time = first_time;
    self->first_seq = first_seq;
}

/* Disarm the armed slot `i` and find the earliest slot left. */
static void
engine_clear_slot(EngineObject *self, Py_ssize_t i)
{
    self->slots[i].seq = -1;
    self->live--;
    if (--self->armed == 0) {
        self->first = -1;
        self->first_time = NAN;
    }
    else if (i == self->first) {
        engine_find_first_slot(self);
    }
}

static int
engine_check_slot(EngineObject *self, Py_ssize_t slot)
{
    if (slot < 0 || slot >= self->nslots) {
        PyErr_Format(PyExc_ValueError, "no timer slot %zd", slot);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(add_slot_doc,
"add_slot(fn, *args) -> int\n\n"
"Add a disarmed timer slot that calls fn(*args); return its index. A\n"
"slot holds at most one pending firing. Firing disarms it, so the\n"
"callback re-arms it if it wants another.");

static PyObject *
Engine_add_slot(EngineObject *self, PyObject *args)
{
    if (PyTuple_GET_SIZE(args) < 1) {
        PyErr_SetString(PyExc_TypeError, "add_slot() requires (fn, *args)");
        return NULL;
    }
    if (self->nslots == self->slots_cap) {
        Py_ssize_t cap = self->slots_cap ? self->slots_cap * 2 : 4;
        Slot *grown = PyMem_Realloc(self->slots, cap * sizeof(Slot));
        if (grown == NULL)
            return PyErr_NoMemory();
        self->slots = grown;
        self->slots_cap = cap;
    }
    PyObject *rest = PyTuple_GetSlice(args, 1, PyTuple_GET_SIZE(args));
    if (rest == NULL)
        return NULL;
    Slot *s = &self->slots[self->nslots];
    s->time = NAN;
    s->seq = -1;
    s->fn = Py_NewRef(PyTuple_GET_ITEM(args, 0));
    s->args = rest; /* stolen */
    return PyLong_FromSsize_t(self->nslots++);
}

PyDoc_STRVAR(reserve_doc,
"reserve(count) -> int\n\n"
"Reserve `count` consecutive seqs for arm(); return the first. A\n"
"reserved seq orders a later arm among the events scheduled around the\n"
"reservation, as if it had been scheduled then.");

static PyObject *
Engine_reserve(EngineObject *self, PyObject *arg)
{
    PyObject *index = PyNumber_Index(arg);
    if (index == NULL)
        return NULL;
    long long count = PyLong_AsLongLong(index);
    if (count == -1 && PyErr_Occurred()) {
        Py_DECREF(index);
        return NULL;
    }
    if (count < 1) {
        PyErr_Format(PyExc_ValueError, "count must be >= 1, got %R", index);
        Py_DECREF(index);
        return NULL;
    }
    Py_DECREF(index);
    long long seq = self->seq;
    self->seq = seq + count;
    return PyLong_FromLongLong(seq);
}

PyDoc_STRVAR(arm_doc,
"arm(slot, when, seq)\n\n"
"Set timer slot `slot` to fire at (when, seq), replacing its pending\n"
"firing, if any. `seq` must have been reserved; against the queue the\n"
"slot fires in (time, seq) order, and the loaded run wins every tie.\n"
"Raises ValueError if `when` is in the past (or NaN), as schedule_at\n"
"does, or if the slot or seq does not exist.");

static PyObject *
Engine_arm(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "arm() takes exactly 3 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t slot = PyNumber_AsSsize_t(args[0], PyExc_OverflowError);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    double when = PyFloat_AsDouble(args[1]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    long long seq = PyLong_AsLongLong(args[2]);
    if (seq == -1 && PyErr_Occurred())
        return NULL;
    if (!(when >= self->now)) {
        raise_with_two_doubles(PyExc_ValueError,
                               "cannot schedule event in the past: "
                               "%R < now %R", when, self->now);
        return NULL;
    }
    if (engine_check_slot(self, slot) < 0)
        return NULL;
    if (seq < 0 || seq >= self->seq) {
        PyErr_Format(PyExc_ValueError, "seq %lld was never reserved", seq);
        return NULL;
    }
    Slot *s = &self->slots[slot];
    if (s->seq < 0) {
        self->armed++;
        self->live++;
    }
    s->time = when;
    s->seq = seq;
    if (self->first < 0 || when < self->first_time ||
        (when == self->first_time && seq < self->first_seq)) {
        self->first = slot;
        self->first_time = when;
        self->first_seq = seq;
    }
    else if (self->first == slot) { /* the earliest slot moved later */
        engine_find_first_slot(self);
    }
    Py_RETURN_NONE;
}

PyDoc_STRVAR(disarm_doc,
"disarm(slot)\n\n"
"Cancel timer slot `slot`'s pending firing (no-op if it has none).");

static PyObject *
Engine_disarm(EngineObject *self, PyObject *arg)
{
    Py_ssize_t slot = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    if (engine_check_slot(self, slot) < 0)
        return NULL;
    if (self->slots[slot].seq >= 0)
        engine_clear_slot(self, slot);
    Py_RETURN_NONE;
}

PyDoc_STRVAR(load_sorted_doc,
"load_sorted(times, fn, args)\n\n"
"Schedule fn(args[i]) at times[i] for every i, at once. The run must be\n"
"non-decreasing and nothing may be pending, so its seqs, reserved here,\n"
"are the lowest of every event that will ever share its times: on a tie\n"
"the run fires first, in index order. Raises ValueError if an entry is\n"
"in the past (or NaN), out of order, or the two sequences differ in\n"
"length.");

static PyObject *
Engine_load_sorted(EngineObject *self, PyObject *args)
{
    PyObject *times_in, *fn, *args_in;
    if (!PyArg_ParseTuple(args, "OOO:load_sorted", &times_in, &fn, &args_in))
        return NULL;
    if (self->live) {
        PyErr_Format(PyExc_ValueError,
                     "cannot load a sorted run: %lld events are pending",
                     self->live);
        return NULL;
    }
    PyObject *times = PySequence_Fast(times_in, "times must be a sequence");
    if (times == NULL)
        return NULL;
    PyObject *loaded = PySequence_List(args_in);
    double *buf = NULL;
    if (loaded == NULL)
        goto fail;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(times);
    if (PyList_GET_SIZE(loaded) != n) {
        PyErr_Format(PyExc_ValueError,
                     "need one argument per time: %zd arguments for %zd times",
                     PyList_GET_SIZE(loaded), n);
        goto fail;
    }
    buf = PyMem_Malloc((n > 0 ? n : 1) * sizeof(double));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    double prev = self->now;
    for (Py_ssize_t i = 0; i < n; i++) {
        double when = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(times, i));
        if (when == -1.0 && PyErr_Occurred())
            goto fail;
        if (!(when >= prev)) { /* out of order, in the past or NaN */
            if (!(when >= self->now)) {
                raise_with_two_doubles(PyExc_ValueError,
                                       "cannot schedule event in the past: "
                                       "%R < now %R", when, self->now);
                goto fail;
            }
            PyObject *wo = PyFloat_FromDouble(when);
            PyObject *po = PyFloat_FromDouble(prev);
            if (wo != NULL && po != NULL)
                PyErr_Format(PyExc_ValueError,
                             "times must be non-decreasing: %R at index %zd "
                             "follows %R", wo, i, po);
            Py_XDECREF(wo);
            Py_XDECREF(po);
            goto fail;
        }
        buf[i] = when;
        prev = when;
    }
    Py_DECREF(times);
    PyMem_Free(self->loaded_times);
    self->loaded_times = buf;
    Py_XSETREF(self->loaded_args, loaded);
    Py_INCREF(fn);
    Py_XSETREF(self->loaded_fn, fn);
    self->loaded_pos = 0;
    self->loaded_len = n;
    self->seq += n;
    self->live += n;
    Py_RETURN_NONE;
fail:
    PyMem_Free(buf);
    Py_XDECREF(loaded);
    Py_DECREF(times);
    return NULL;
}

/* How far the queue may fire before the loaded run and the slots: the
 * double just below the loaded run's next entry when that entry is due
 * by `bound` and no later than the earliest slot, since it wins every
 * tie. Else the earliest slot's time when that slot is due: the queue
 * fires up to it, and a queued event at that very time goes before or
 * after the slot by seq, as the fire loops check. Else `bound`. So the
 * result equals first_time exactly when the earliest slot is due, and
 * is otherwise below `bound` exactly when a loaded entry is due. The
 * one place the three sources merge. */
static double
engine_queue_bound(EngineObject *self, double bound)
{
    double slot_time = self->first_time;
    if (self->loaded_pos < self->loaded_len) {
        double next = self->loaded_times[self->loaded_pos];
        if (next <= bound && !(next > slot_time))
            return nextafter(next, -INFINITY);
    }
    if (slot_time <= bound)
        return slot_time;
    return bound;
}

/* Fire the earliest armed slot, disarming it first. Returns 0, or -1
 * on exception. */
static int
engine_fire_slot(EngineObject *self)
{
    Py_ssize_t i = self->first;
    self->now = self->first_time;
    self->fired++;
    /* the callback may re-arm the slot or add slots, moving the array */
    PyObject *fn = Py_NewRef(self->slots[i].fn);
    PyObject *args = Py_NewRef(self->slots[i].args);
    engine_clear_slot(self, i);
    PyObject *res = PyObject_Call(fn, args, NULL);
    Py_DECREF(args);
    Py_DECREF(fn);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Fire the loaded run's next entry. Returns 0, or -1 on exception. */
static int
engine_fire_loaded(EngineObject *self)
{
    Py_ssize_t pos = self->loaded_pos++;
    self->now = self->loaded_times[pos];
    self->fired++;
    self->live--;
    /* a callback may load a new run, dropping these references */
    PyObject *fn = Py_NewRef(self->loaded_fn);
    PyObject *arg = Py_NewRef(PyList_GET_ITEM(self->loaded_args, pos));
    PyObject *res = PyObject_CallOneArg(fn, arg);
    Py_DECREF(arg);
    Py_DECREF(fn);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
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

/* Fire every event with time <= bound, batch by batch, and the loaded
 * run's entries and slot firings in between. On a callback exception
 * the unfired tail of the current batch becomes the new head bucket,
 * so the queue looks as if those events were never popped; a slot
 * armed for the batch's own time with a lower seq than the next handle
 * fires before it, with the rest of the batch left as the head. */
static int
engine_drain(EngineObject *self, double bound)
{
    for (;;) {
        double qbound = engine_queue_bound(self, bound);
        PyObject *batch = engine_next_batch(self, qbound);
        if (batch == NULL) {
            if (PyErr_Occurred())
                return -1;
            /* nothing queued up to the bound: the due slot, the due
             * loaded entry, or the end */
            if (qbound == self->first_time) {
                if (engine_fire_slot(self) < 0)
                    return -1;
            }
            else if (qbound == bound) {
                return 0;
            }
            else if (engine_fire_loaded(self) < 0) {
                return -1;
            }
            continue;
        }
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
        double now = ((HandleObject *)PyList_GET_ITEM(batch, 0))->time;
        self->now = now;
        for (i = 0; i < n; i++) {
            HandleObject *h = (HandleObject *)PyList_GET_ITEM(batch, i);
            if (h->cancelled)
                continue;
            if (now == self->first_time && self->first_seq < h->seq) {
                self->head = batch; /* steal our batch reference */
                self->head_pos = i;
                self->head_time = now;
                break;
            }
            /* Counters move before the callback runs, exactly as for
             * a loaded entry or a slot: a callback reading `pending` or
             * `events_fired` sees its own event counted, whatever its
             * source. */
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
        if (i < n) { /* the slot goes before the rest of the batch */
            if (engine_fire_slot(self) < 0)
                return -1;
        }
        else {
            Py_DECREF(batch);
        }
    }
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

/* The earliest of the head or first queued bucket, cancelled handles
 * included, the loaded run's next entry and the earliest armed slot, as
 * PyEngine.next_time; inf when the engine holds nothing. */
static PyObject *
Engine_get_next_time(EngineObject *self, void *closure)
{
    double when = INFINITY;
    if (self->head != NULL)
        when = self->head_time; /* always the earliest bucket */
    else if (self->times_len > 0)
        when = self->times[0];
    if (self->loaded_pos < self->loaded_len &&
        self->loaded_times[self->loaded_pos] < when)
        when = self->loaded_times[self->loaded_pos];
    if (self->first_time < when) /* NaN, so false, while none is armed */
        when = self->first_time;
    return PyFloat_FromDouble(when);
}

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {"events_fired", (getter)Engine_get_events_fired, NULL,
     "Number of events processed so far, slot firings included.", NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Number of not-yet-fired, not-cancelled events - O(1). An armed "
     "timer slot counts once.", NULL},
    {"next_time", (getter)Engine_get_next_time, NULL,
     "The earliest time at which anything is due; inf when idle. A "
     "bucket whose handles were all cancelled still counts, so "
     "run_until(next_time) fires at most one timestamp's events, "
     "possibly none.", NULL},
    {NULL}
};

static PyMethodDef Engine_methods[] = {
    {"schedule_at", (PyCFunction)Engine_schedule_at, METH_VARARGS,
     schedule_at_doc},
    {"schedule_after", (PyCFunction)Engine_schedule_after, METH_VARARGS,
     schedule_after_doc},
    {"load_sorted", (PyCFunction)Engine_load_sorted, METH_VARARGS,
     load_sorted_doc},
    {"add_slot", (PyCFunction)Engine_add_slot, METH_VARARGS, add_slot_doc},
    {"reserve", (PyCFunction)Engine_reserve, METH_O, reserve_doc},
    {"arm", (PyCFunction)(void (*)(void))Engine_arm, METH_FASTCALL, arm_doc},
    {"disarm", (PyCFunction)Engine_disarm, METH_O, disarm_doc},
    {"run_until", (PyCFunction)Engine_run_until, METH_O, run_until_doc},
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
