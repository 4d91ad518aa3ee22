"""Unit tests for Store and CpuResource."""

import pytest

from repro.errors import SimulationError
from repro.sim import CpuResource, Environment, Store


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def proc():
            yield store.put("x")
            item = yield store.get()
            got.append(item)

        env.process(proc())
        env.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(3.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_blocks_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer():
            yield env.timeout(2.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 2.0) in log

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_nan_capacity_rejected(self):
        # NaN slips past a plain ``capacity <= 0`` check, and every put
        # on the store would then block forever.
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=float("nan"))

    def test_len_and_items(self):
        env = Environment()
        store = Store(env)

        def proc():
            yield store.put(1)
            yield store.put(2)

        env.process(proc())
        env.run()
        assert len(store) == 2
        assert store.items == (1, 2)

    def test_waiting_getters_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        def putter():
            yield env.timeout(1.0)
            yield store.put("first")
            yield store.put("second")

        env.process(getter("g1"))
        env.process(getter("g2"))
        env.process(putter())
        env.run()
        assert got == [("g1", "first"), ("g2", "second")]


class TestCpuResource:
    def test_single_job_duration(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc():
            yield cpu.execute(500.0)  # 0.5 s at 1 kHz

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(0.5)

    def test_jobs_queue_on_one_core(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)
        finished = []

        def submit(tag):
            yield cpu.execute(1000.0)
            finished.append((tag, env.now))

        env.process(submit("a"))
        env.process(submit("b"))
        env.run()
        assert finished == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]

    def test_two_cores_run_in_parallel(self):
        env = Environment()
        cpu = CpuResource(env, cores=2, freq_hz=1000.0)
        finished = []

        def submit(tag):
            yield cpu.execute(1000.0)
            finished.append((tag, env.now))

        env.process(submit("a"))
        env.process(submit("b"))
        env.run()
        assert [t for _, t in finished] == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_busy_seconds_per_account(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc():
            yield cpu.execute(100.0, account="usr")
            yield cpu.execute(300.0, account="sys")
            yield cpu.execute(100.0, account="usr")

        env.process(proc())
        env.run()
        assert cpu.busy_seconds("usr") == pytest.approx(0.2)
        assert cpu.busy_seconds("sys") == pytest.approx(0.3)
        assert cpu.busy_seconds() == pytest.approx(0.5)

    def test_breakdown_returns_copy(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc():
            yield cpu.execute(100.0, account="usr")

        env.process(proc())
        env.run()
        snap = cpu.breakdown()
        snap["usr"] = 999.0
        assert cpu.busy_seconds("usr") == pytest.approx(0.1)

    def test_utilization(self):
        env = Environment()
        cpu = CpuResource(env, cores=2, freq_hz=1000.0)

        def proc():
            yield cpu.execute(1000.0)

        env.process(proc())
        env.run()
        # 1 core busy for 1 s out of 2 cores over 1 s => 50 %
        assert cpu.utilization() == pytest.approx(0.5)

    def test_reset_accounting(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc():
            yield cpu.execute(1000.0)
            cpu.reset_accounting()
            yield cpu.execute(500.0, account="sys")

        env.process(proc())
        env.run()
        assert cpu.busy_seconds() == pytest.approx(0.5)
        assert cpu.busy_seconds("sys") == pytest.approx(0.5)
        assert cpu.utilization() == pytest.approx(1.0)

    def test_mean_wait_counts_queueing(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc(tag):
            yield cpu.execute(1000.0)

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        # job b waited 1 s; mean over two jobs = 0.5 s
        assert cpu.mean_wait() == pytest.approx(0.5)

    def test_zero_cycles_completes_immediately(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)

        def proc():
            yield cpu.execute(0.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 0.0

    def test_negative_cycles_rejected(self):
        env = Environment()
        cpu = CpuResource(env)
        with pytest.raises(SimulationError):
            cpu.execute(-1.0)

    def test_nan_cycles_rejected(self):
        # NaN slips past a plain ``cycles < 0`` check and would drive
        # the clock to NaN once the job completed.
        env = Environment()
        cpu = CpuResource(env)
        with pytest.raises(SimulationError):
            cpu.execute(float("nan"))
        assert cpu.busy_cores == 0 and cpu.queue_depth == 0
        env.run()
        assert env.now == 0.0

    def test_invalid_construction(self):
        env = Environment()
        with pytest.raises(SimulationError):
            CpuResource(env, cores=0)
        with pytest.raises(SimulationError):
            CpuResource(env, freq_hz=0)

    def test_seconds_for(self):
        env = Environment()
        cpu = CpuResource(env, freq_hz=2.0e9)
        assert cpu.seconds_for(2.0e9) == pytest.approx(1.0)

    def test_queue_depth_and_busy_cores(self):
        env = Environment()
        cpu = CpuResource(env, cores=1, freq_hz=1000.0)
        cpu.execute(1000.0)
        cpu.execute(1000.0)
        cpu.execute(1000.0)
        assert cpu.busy_cores == 1
        assert cpu.queue_depth == 2
        env.run()
        assert cpu.busy_cores == 0
        assert cpu.queue_depth == 0
