"""The statistics pass of ``sdgzsl.gates`` on one thread and on two.

The chunks of a pass form one queue in row order.  When some split of a
pass has two chunks or more and ``sdgzsl._threads`` gives the pass a second
thread, the caller and a pool's one thread each take the next untaken chunk
until none is left.  These tests force that path whatever the machine, and
check it against the one-thread pass byte for byte.  Which thread takes
which chunk is up to the scheduler, so where a test needs both threads to
run chunks, or a failure to be recorded before a thread takes its next
chunk, it holds a chunk on an event until then; no sleep decides an outcome.
"""

import concurrent.futures
import contextlib
import dataclasses
import functools
import itertools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import force_two_threads

import sdgzsl.gates
import sdgzsl.mlp
from sdgzsl import (DomainError, STRATEGIES, SplitMix64, SyntheticSpec, TrainConfig, calibrate,
                    calibrate_from_samples, evaluate, evaluate_baseline, evaluate_sweep,
                    forward_batch, gate_statistics, generate_synthetic, predict, train)
from sdgzsl.gates import _chunk_rows, _split_stats, _tables
from sdgzsl.linalg import ROW_BLOCK, _row_norms
from sdgzsl.pipeline import render_report_kv


def chunk_rows(monkeypatch, mapper, rows: int) -> None:
    """Make the pass take ``rows`` rows per chunk through ``mapper``, below the
    floor of ``_CHUNK_MIN_BLOCKS`` blocks too."""
    monkeypatch.setattr(sdgzsl.gates, "_CHUNK_MIN_BLOCKS", 1)
    monkeypatch.setattr(sdgzsl.gates, "_CHUNK_VALUES", rows * max(mapper.layer_sizes()))
    assert _chunk_rows(mapper) == rows


CALLER, POOL = threading.current_thread().name, "sdgzsl-stats_0"
# the longest a thread waits for the other; only a broken queue waits so long
MEET_S = 10.0


def record_threads(monkeypatch, meet: bool) -> set:
    """The names of the threads that run a chunk's ``forward_batch``, through a
    plain (unwrapped) stand-in that leaves two threads allowed.  Each pass
    starts its own pool, whose one thread has the same name.  With ``meet``,
    the first two chunks to get there wait for each other, so a pass of two
    chunks or more with a second thread runs one on each: otherwise a caller
    may take every chunk before the pool's thread has started."""
    threads, original = set(), sdgzsl.gates.forward_batch
    barrier, calls = threading.Barrier(2, timeout=MEET_S), itertools.count()

    def spy(params, x):
        threads.add(threading.current_thread().name)
        if meet and next(calls) < 2:
            barrier.wait()
        return original(params, x)

    monkeypatch.setattr(sdgzsl.gates, "forward_batch", spy)
    return threads


def bits(arrays):
    return [(a.dtype.str, a.tobytes()) for a in arrays]


# rows per chunk -> chunks of the 200-row seen_test split of ``bench_dataset``:
# 1 (1024 rows), 2 (128 + 72) and 7 (six of 32, a ragged tail of 8)
CHUNKS = {1024: 1, 128: 2, ROW_BLOCK: 7}


@pytest.fixture(scope="module")
def one_thread(bench_dataset, bench_mapper):
    """Everything the tests compare, from the one-thread pass at the default chunks."""
    mapper, _ = bench_mapper
    ds = bench_dataset
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_two_threads(monkeypatch, False)
        th = calibrate(mapper, ds)
        return {
            "stats": bits(_split_stats(mapper, ds.unified_norm, [ds.seen_test_x],
                                       *_tables(mapper, ds.seen_emb, ds.unseen_emb))[0]),
            "thresholds": dataclasses.astuple(th),
            "sweep": [render_report_kv(r) for r in evaluate_sweep(mapper, th, ds)],
            "predict": {tag: bits(predict(mapper, th, tag, ds.seen_test_x, ds.seen_emb,
                                          ds.unseen_emb)) for tag in STRATEGIES},
        }


class TestSameBitsOnTwoThreads:
    @pytest.fixture(autouse=True)
    def _two(self, monkeypatch):
        force_two_threads(monkeypatch, True)

    @pytest.mark.parametrize("rows", CHUNKS)
    def test_the_five_vectors(self, monkeypatch, bench_dataset, bench_mapper, one_thread, rows):
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, rows)
        threads = record_threads(monkeypatch, meet=CHUNKS[rows] > 1)
        before = threading.active_count()
        [got] = _split_stats(mapper, ds.unified_norm, [ds.seen_test_x],
                             *_tables(mapper, ds.seen_emb, ds.unseen_emb))
        assert bits(got) == one_thread["stats"]
        assert threads == ({CALLER} if CHUNKS[rows] == 1 else {CALLER, POOL})
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows", CHUNKS)
    def test_one_pass_over_two_splits_is_two_passes(self, monkeypatch, bench_dataset,
                                                    bench_mapper, rows):
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, rows)
        tables = _tables(mapper, ds.seen_emb, ds.unseen_emb)
        splits = [ds.seen_test_x, ds.unseen_test_x]  # 200 and 60 rows
        both = _split_stats(mapper, ds.unified_norm, splits, *tables)
        force_two_threads(monkeypatch, False)
        assert [bits(s) for s in both] == [
            bits(_split_stats(mapper, ds.unified_norm, [xs], *tables)[0]) for xs in splits]

    def test_splits_of_unequal_chunk_counts(self, monkeypatch, bench_dataset, bench_mapper):
        """While one thread is held in the first chunk it took, the other runs
        every other chunk of both splits: neither thread's share is fixed."""
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)
        tables = _tables(mapper, ds.seen_emb, ds.unseen_emb)
        splits = [ds.seen_train_x, ds.unseen_test_x]  # 500 and 60 rows: 16 and 2 chunks
        calls, lock, rest_ran = [], threading.Lock(), threading.Event()
        original = sdgzsl.gates.forward_batch

        def holding_forward(params, x):
            with lock:
                calls.append(threading.current_thread().name)
                first = len(calls) == 1
                if len(calls) == 18:
                    rest_ran.set()
            if first and not rest_ran.wait(MEET_S):
                raise TimeoutError("the other thread did not run the other chunks")
            return original(params, x)

        monkeypatch.setattr(sdgzsl.gates, "forward_batch", holding_forward)
        both = _split_stats(mapper, ds.unified_norm, splits, *tables)
        assert len(calls) == 18 and set(calls) == {CALLER, POOL} and calls[0] not in calls[1:]
        monkeypatch.setattr(sdgzsl.gates, "forward_batch", original)
        force_two_threads(monkeypatch, False)
        assert [bits(s) for s in both] == [
            bits(s) for s in _split_stats(mapper, ds.unified_norm, splits, *tables)]

    def test_concurrent_passes_run_each_chunk_once(self, monkeypatch, bench_dataset,
                                                    bench_mapper):
        """Four callers run passes at once, each beside its own pool's thread:
        eight threads on two cores, switching every microsecond.  A chunk taken
        twice or never would show in the counts or the bits."""
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)
        tables = _tables(mapper, ds.seen_emb, ds.unseen_emb)
        inputs = [ds.seen_train_x.copy() for _ in range(4)]  # 500 rows: 16 chunks
        for caller, xs in enumerate(inputs):
            xs[:, 0] = 1000 * caller + np.arange(xs.shape[0])  # a chunk's first row names it
        force_two_threads(monkeypatch, False)
        want = [bits(_split_stats(mapper, ds.unified_norm, [xs], *tables)[0]) for xs in inputs]
        force_two_threads(monkeypatch, True)
        starts, original = [], sdgzsl.gates.forward_batch

        def counting_forward(params, x):
            starts.append(int(x[0, 0]))
            return original(params, x)

        monkeypatch.setattr(sdgzsl.gates, "forward_batch", counting_forward)
        rounds, got = 10, [[] for _ in inputs]

        def caller(k: int) -> None:
            for _ in range(rounds):
                got[k].append(bits(_split_stats(mapper, ds.unified_norm, [inputs[k]], *tables)[0]))

        callers = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(3 * MEET_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        each_chunk = [1000 * k + start for k in range(4) for start in range(0, 500, ROW_BLOCK)]
        assert sorted(starts) == sorted(rounds * each_chunk)
        assert got == [rounds * [w] for w in want]

    @pytest.mark.parametrize("rows", CHUNKS)
    def test_calibrate_sweep_and_predict(self, monkeypatch, bench_dataset, bench_mapper,
                                         one_thread, rows):
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, rows)
        threads = record_threads(monkeypatch, meet=CHUNKS[rows] > 1)
        th = calibrate(mapper, ds)  # 500 seen_train rows: 1, 4 and 16 chunks
        assert dataclasses.astuple(th) == one_thread["thresholds"]
        assert [render_report_kv(r) for r in evaluate_sweep(mapper, th, ds)] == one_thread["sweep"]
        for tag in STRATEGIES:
            assert bits(predict(mapper, th, tag, ds.seen_test_x, ds.seen_emb,
                                ds.unseen_emb)) == one_thread["predict"][tag]
        assert threads == ({CALLER} if CHUNKS[rows] == 1 else {CALLER, POOL})


# the benchmark's three shapes: the README quick start and its default train,
# then eval_heavy and train_heavy (at 2 of its 60 epochs: the shapes are the same)
SHAPES = {
    "cli_default": (SyntheticSpec(10, 3, 32, 16, 50, 20, 0.05, seed=7), TrainConfig()),
    "eval_heavy": (SyntheticSpec(60, 20, 32, 32, 10, 100, 0.05, seed=1),
                   TrainConfig(epochs=20, seed=2)),
    "train_heavy": (SyntheticSpec(20, 5, 256, 64, 100, 20, 0.05, seed=1),
                    TrainConfig(epochs=2, seed=2)),
}


@pytest.fixture(scope="module", params=SHAPES)
def shape_run(request):
    spec, cfg = SHAPES[request.param]
    ds = generate_synthetic(spec)
    return ds, train(ds, cfg)[0]


class TestThePublicPathIsThePass:
    """``forward_batch`` then ``gate_statistics`` give the statistics the gates read."""

    @pytest.mark.parametrize("split", ["seen_test", "unseen_test"])
    def test_the_same_d_l_and_msd(self, shape_run, split):
        ds, mapper = shape_run
        xs = getattr(ds, f"{split}_x")
        d_l, msd, _ = _split_stats(mapper, ds.unified_norm, [xs], *_tables(mapper, ds.seen_emb))[0]
        public = gate_statistics(forward_batch(mapper, xs), ds.seen_emb, ds.unified_norm)
        assert np.array_equal(public[0], d_l)
        assert np.array_equal(public[1], msd)

    def test_the_same_thresholds(self, shape_run):
        ds, mapper = shape_run
        d_l, msd = gate_statistics(forward_batch(mapper, ds.seen_train_x), ds.seen_emb,
                                   ds.unified_norm)
        assert calibrate_from_samples(d_l, msd, 1.0, ds.unified_norm) == calibrate(mapper, ds)

    def test_each_screen_takes_the_chunks_row_norms(self, monkeypatch, shape_run):
        """A screen's margin reads the ``_row_norms`` of the chunk's projections,
        which also give its ``d_l``: smaller norms would narrow the margin below
        what ``nearest``'s proof needs."""
        ds, mapper = shape_run
        norms, original = [], sdgzsl.gates._screen

        def spy(proj, prepared, given):
            norms.append((given.tobytes(), _row_norms(proj).tobytes()))
            return original(proj, prepared, given)

        monkeypatch.setattr(sdgzsl.gates, "_screen", spy)
        _split_stats(mapper, ds.unified_norm, [ds.seen_test_x],
                     *_tables(mapper, ds.seen_emb, ds.unseen_emb))
        assert norms and all(given == want for given, want in norms)

    def test_chunks_of_at_least_eight_row_blocks(self, shape_run):
        """2048 rows at width 32 (2**16 values), 256 at width 256 (the floor)."""
        _, mapper = shape_run
        width = max(mapper.layer_sizes())
        assert _chunk_rows(mapper) == {32: 2048, 256: 8 * ROW_BLOCK}[width]


class TestFailuresOnTwoThreads:
    @pytest.fixture(autouse=True)
    def _two(self, monkeypatch, bench_mapper):
        force_two_threads(monkeypatch, True)
        chunk_rows(monkeypatch, bench_mapper[0], ROW_BLOCK)

    def test_an_overflowing_weight_raises_and_leaves_no_thread(self, bench_dataset, bench_mapper):
        # a network holds finite parameters only, so a hidden unit's product overflows
        mapper, _ = bench_mapper
        weights = [w.copy() for w in mapper.weights]
        weights[0][3] = np.finfo(np.float64).max
        bad = dataclasses.replace(mapper, weights=weights)
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="non-finite"):
                calibrate(bad, bench_dataset)
            with pytest.raises(DomainError, match="non-finite"):
                evaluate_sweep(bad, calibrate(mapper, bench_dataset), bench_dataset)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing, raised", [
        ({1}, 1),
        ({2}, 2),
        ({1, 2}, 1),  # both may run, one on each thread: the first in row order raises
        ({2, 3}, 2),
        ({6}, 6),  # the ragged tail
        ({0}, 0),
    ])
    def test_the_first_failing_chunk_in_row_order_raises(self, monkeypatch, bench_dataset,
                                                         bench_mapper, failing, raised):
        mapper, _ = bench_mapper
        ds = bench_dataset
        xs = ds.seen_test_x.copy()
        xs[:, 0] = np.arange(xs.shape[0])  # each chunk's first row names its start
        ran, original = [], sdgzsl.gates.forward_batch

        def failing_forward(params, x):
            chunk = int(x[0, 0]) // ROW_BLOCK
            ran.append(chunk)
            if chunk in failing:
                raise DomainError(f"chunk {chunk}")
            return original(params, x)

        monkeypatch.setattr(sdgzsl.gates, "forward_batch", failing_forward)
        before = threading.active_count()
        with pytest.raises(DomainError, match=f"^chunk {raised}$"):
            _split_stats(mapper, ds.unified_norm, [xs], *_tables(mapper, ds.seen_emb))
        assert threading.active_count() == before
        assert set(range(raised)) <= set(ran)  # every earlier chunk ran

    @pytest.mark.parametrize("first", [CALLER, POOL])
    def test_no_chunk_starts_once_a_failure_is_recorded(self, monkeypatch, bench_dataset,
                                                         bench_mapper, first):
        """One thread is held in chunk 0 until the other has run chunk 1, seen it
        fail and left the queue; then it must start no chunk either.  The pool
        is a stand-in thread, so the test knows when it has left, and ``first``
        says which thread takes chunk 0."""
        mapper, _ = bench_mapper
        ds = bench_dataset
        xs = ds.seen_train_x.copy()  # 500 rows: 16 chunks
        xs[:, 0] = np.arange(xs.shape[0])
        ran, original = {}, sdgzsl.gates.forward_batch
        in_chunk_0, other_left = threading.Event(), threading.Event()

        def failing_forward(params, x):
            chunk = int(x[0, 0]) // ROW_BLOCK
            ran[chunk] = threading.current_thread().name
            if chunk == 0:
                in_chunk_0.set()
                if not other_left.wait(MEET_S):
                    raise TimeoutError("the other thread did not leave the queue")
            if chunk == 1:
                raise DomainError("chunk 1")
            return original(params, x)

        submits = []

        def submit(fn, *args):
            def share():
                if first == CALLER:
                    in_chunk_0.wait(MEET_S)
                fn(*args)
                other_left.set()

            pool = threading.Thread(target=share, name=POOL)
            pool.start()
            submits.append(pool)
            if first == POOL:
                in_chunk_0.wait(MEET_S)

            def result():  # the caller has left the queue, and waits for the pool
                other_left.set()
                pool.join()

            return SimpleNamespace(result=result)

        monkeypatch.setattr(sdgzsl.gates, "forward_batch", failing_forward)
        monkeypatch.setattr(sdgzsl.gates, "second_thread",
                            lambda name, wanted: contextlib.nullcontext(submit))
        with pytest.raises(DomainError, match="^chunk 1$"):
            _split_stats(mapper, ds.unified_norm, [xs], *_tables(mapper, ds.seen_emb))
        assert len(submits) == 1  # one hand-off per call
        assert ran == {0: first, 1: ({CALLER, POOL} - {first}).pop()}


def count_thread_starts(monkeypatch) -> list:
    """The name of every thread started from now on."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


# the pass's own callees, then the functions that the benchmark's tracer wraps
# and that train or the pass reach: one wrapped keeps both jobs on one thread
WRAPPABLE = [(sdgzsl.gates, "forward_batch"), (sdgzsl.gates, "_row_norms"),
             (sdgzsl.gates, "_screen"), (sdgzsl.mlp, "check_finite"),
             (sdgzsl.mlp, "mse_loss"), (SplitMix64, "permutation")]


class TestWhenTwoThreadsRun:
    @pytest.mark.parametrize("owner, name", WRAPPABLE,
                             ids=[f"{owner.__name__.rpartition('.')[2]}.{name}"
                                  for owner, name in WRAPPABLE])
    def test_a_wrapped_callee_keeps_one_thread(self, monkeypatch, bench_dataset, bench_mapper,
                                               owner, name):
        force_two_threads(monkeypatch, True)
        mapper, _ = bench_mapper
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)
        original = getattr(owner, name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, traced)
        started = count_thread_starts(monkeypatch)
        train(bench_dataset, TrainConfig(epochs=2))
        evaluate_sweep(mapper, calibrate(mapper, bench_dataset), bench_dataset)
        assert started == []

    def test_with_nothing_wrapped_each_job_starts_its_one_thread(self, monkeypatch, bench_dataset,
                                                                 bench_mapper):
        force_two_threads(monkeypatch, True)
        mapper, _ = bench_mapper
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)
        started = count_thread_starts(monkeypatch)
        train(bench_dataset, TrainConfig(epochs=2))
        evaluate_sweep(mapper, calibrate(mapper, bench_dataset), bench_dataset)
        assert started == ["sdgzsl-train-steps_0", POOL, POOL]

    def test_one_cpu_keeps_one_thread(self, monkeypatch, bench_dataset, bench_mapper):
        force_two_threads(monkeypatch, False)
        chunk_rows(monkeypatch, bench_mapper[0], ROW_BLOCK)
        threads = record_threads(monkeypatch, meet=False)
        calibrate(bench_mapper[0], bench_dataset)
        assert threads == {CALLER}

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy's errstate is a context variable from numpy 2.0 on")
    def test_the_callers_errstate_holds_in_pooled_chunks(self, monkeypatch, bench_dataset,
                                                         bench_mapper):
        force_two_threads(monkeypatch, True)
        mapper, _ = bench_mapper
        ds = bench_dataset
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)
        xs = ds.seen_test_x.copy()
        overflowing = np.s_[: 2 * ROW_BLOCK]
        xs[overflowing] *= 1e160  # chunks 0 and 1: finite projections whose squares overflow
        raised, original = set(), sdgzsl.gates.forward_batch
        barrier, calls = threading.Barrier(2, timeout=MEET_S), itertools.count()

        def spy(params, x):
            if next(calls) < 2:
                barrier.wait()  # chunks 0 and 1, one on each thread
            proj = original(params, x)
            try:
                np.square(proj)  # overflows in chunks 0 and 1 unless the errstate ignores it
            except FloatingPointError:
                raised.add(threading.current_thread().name)
                raise
            return proj

        monkeypatch.setattr(sdgzsl.gates, "forward_batch", spy)
        tables = _tables(mapper, ds.seen_emb)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            _split_stats(mapper, ds.unified_norm, [xs], *tables)
        assert raised == {CALLER, POOL}
        # the pass's own squares overflow to an infinite norm and distance, which
        # are the right values, whatever the caller's errstate
        monkeypatch.setattr(sdgzsl.gates, "forward_batch", original)
        with np.errstate(over="raise"):
            [(d_l, msd, _)] = _split_stats(mapper, ds.unified_norm, [xs], *tables)
        assert np.isinf(d_l[overflowing]).all() and np.isinf(msd[overflowing]).all()
        assert np.isfinite(np.delete(d_l, overflowing)).all()


def count_pools(monkeypatch) -> list:
    """Every ``ThreadPoolExecutor`` made from now on."""
    pools = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return pools


class TestOnePoolPerEvaluation:
    @pytest.fixture(autouse=True)
    def _two(self, monkeypatch):
        force_two_threads(monkeypatch, True)

    @pytest.mark.parametrize("run", ["evaluate_sweep", "evaluate", "evaluate_baseline"])
    def test_each_evaluation_starts_one_pool(self, monkeypatch, bench_dataset, bench_mapper,
                                             run):
        mapper, _ = bench_mapper
        ds = bench_dataset
        th = calibrate(mapper, ds)
        chunk_rows(monkeypatch, mapper, ROW_BLOCK)  # 7 chunks of seen_test, 2 of unseen_test
        pools = count_pools(monkeypatch)
        threads = record_threads(monkeypatch, meet=True)
        {"evaluate_sweep": lambda: evaluate_sweep(mapper, th, ds),
         "evaluate": lambda: evaluate(mapper, th, "dl", ds),
         "evaluate_baseline": lambda: evaluate_baseline(mapper, ds)}[run]()
        assert len(pools) == 1 and threads == {CALLER, POOL}

    def test_no_pass_starts_a_pool_at_the_cli_shape(self, monkeypatch, bench_dataset,
                                                    bench_mapper):
        mapper, _ = bench_mapper
        ds = bench_dataset
        assert _chunk_rows(mapper) == 2048  # above every split's rows: 500, 200 and 60
        pools = count_pools(monkeypatch)
        th = calibrate(mapper, ds)
        evaluate_sweep(mapper, th, ds)
        evaluate(mapper, th, "ws", ds)
        evaluate_baseline(mapper, ds)
        predict(mapper, th, "ol", ds.unseen_test_x, ds.seen_emb, ds.unseen_emb)
        assert pools == []

