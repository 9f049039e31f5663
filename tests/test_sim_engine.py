"""Tests for the discrete-event kernel and its primitives."""

import pytest

from repro.sim import Barrier, CreditStore, Engine, Server, SimulationError


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.at(10, lambda: order.append("b"))
        engine.at(5, lambda: order.append("a"))
        engine.at(20, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 20

    def test_same_time_events_fifo(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.at(7, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_after_is_relative(self):
        engine = Engine()
        times = []
        engine.after(3, lambda: times.append(engine.now))
        engine.run()
        assert times == [3]

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def outer():
            seen.append(engine.now)
            engine.after(5, lambda: seen.append(engine.now))

        engine.at(2, outer)
        engine.run()
        assert seen == [2, 7]

    def test_engine_uses_slots(self):
        assert not hasattr(Engine(), "__dict__")

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5, lambda: None)
        with pytest.raises(SimulationError):
            engine.after(-1, lambda: None)

    def test_event_counter(self):
        engine = Engine()
        for i in range(5):
            engine.at(i, lambda: None)
        engine.run()
        assert engine.events_processed == 5
        assert engine.empty()


class TestEngineEdgeSemantics:
    """Same-cycle-batch and re-entrancy contracts of run()."""

    def test_same_cycle_events_scheduled_during_dispatch_run_fifo(self):
        engine = Engine()
        order = []

        def outer(tag):
            order.append(tag)
            engine.after(0, lambda: order.append(f"{tag}-after0"))
            engine.at(engine.now, lambda: order.append(f"{tag}-atnow"))

        engine.at(5, lambda: outer("x"))
        engine.at(5, lambda: outer("y"))
        engine.run()
        # continuations land at the tail of the in-flight batch, in
        # scheduling order, after all previously queued same-cycle events
        assert order == [
            "x", "y", "x-after0", "x-atnow", "y-after0", "y-atnow",
        ]
        assert engine.now == 5

    def test_reentrant_run_raises(self):
        engine = Engine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as error:
                errors.append(str(error))

        engine.at(1, reenter)
        engine.run()
        assert len(errors) == 1
        assert "re-entrant" in errors[0]
        # the outer run survives the rejected re-entry
        engine.at(2, lambda: None)
        assert engine.run() == 2


class TestServer:
    def test_single_capacity_serialises(self):
        engine = Engine()
        server = Server(engine, "s", capacity=1)
        done = []
        server.submit(10, lambda: done.append(engine.now))
        server.submit(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [10, 20]

    def test_multi_capacity_overlaps(self):
        engine = Engine()
        server = Server(engine, "s", capacity=2)
        done = []
        for _ in range(4):
            server.submit(10, lambda: done.append(engine.now))
        engine.run()
        assert done == [10, 10, 20, 20]

    def test_queue_statistics(self):
        engine = Engine()
        server = Server(engine, "s", capacity=1)
        server.submit(5, lambda: None)
        server.submit(5, lambda: None)
        assert server.queue_length == 1
        assert server.in_service == 1
        engine.run()
        assert server.idle

    def test_zero_duration_job(self):
        engine = Engine()
        server = Server(engine, "s")
        done = []
        server.submit(0, lambda: done.append(engine.now))
        engine.run()
        assert done == [0]

    def test_invalid_parameters(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            Server(engine, "s", capacity=0)
        with pytest.raises(SimulationError):
            Server(engine, "s").submit(-1, lambda: None)

    def test_server_and_credit_store_use_slots(self):
        engine = Engine()
        assert not hasattr(Server(engine, "s"), "__dict__")
        assert not hasattr(CreditStore(engine, "c"), "__dict__")


class TestCreditStore:
    def test_acquire_available_credit_immediately(self):
        engine = Engine()
        store = CreditStore(engine, "c", initial=2)
        granted = []
        store.acquire(lambda: granted.append(engine.now))
        assert granted == [0]
        assert store.available == 1

    def test_acquire_blocks_until_release(self):
        engine = Engine()
        store = CreditStore(engine, "c", initial=1)
        granted = []
        store.acquire(lambda: granted.append("a"))
        store.acquire(lambda: granted.append("b"))
        assert granted == ["a"]
        assert store.waiters == 1
        engine.at(10, store.release)
        engine.run()
        assert granted == ["a", "b"]

    def test_fifo_wakeup_order(self):
        engine = Engine()
        store = CreditStore(engine, "c", initial=0)
        granted = []
        for tag in ("x", "y", "z"):
            store.acquire(lambda t=tag: granted.append(t))
        store.release(2)
        assert granted == ["x", "y"]
        store.release()
        assert granted == ["x", "y", "z"]

    def test_negative_release_rejected(self):
        engine = Engine()
        store = CreditStore(engine, "c", initial=1)
        with pytest.raises(SimulationError):
            store.release(-1)


class TestSlotsAndAccounting:
    def test_barrier_uses_slots(self):
        assert not hasattr(Barrier(1, lambda: None), "__dict__")

    def test_credit_store_wait_accounting_is_inline(self):
        """Waiters are their bare callbacks — no parallel bookkeeping deque."""
        engine = Engine()
        store = CreditStore(engine, "c", initial=0)
        assert not hasattr(store, "_wait_since")
        granted = []
        store.acquire(lambda: granted.append(engine.now))
        store.acquire(lambda: granted.append(engine.now))
        engine.at(4, lambda: store.release())
        engine.at(9, lambda: store.release())
        engine.run()
        assert granted == [4, 9]


class TestBarrier:
    def test_fires_after_count_arrivals(self):
        fired = []
        barrier = Barrier(3, lambda: fired.append(True))
        barrier.arrive()
        barrier.arrive()
        assert not fired
        barrier.arrive()
        assert fired and barrier.done

    def test_zero_count_fires_immediately(self):
        fired = []
        Barrier(0, lambda: fired.append(True))
        assert fired

    def test_extra_arrival_rejected(self):
        barrier = Barrier(1, lambda: None)
        barrier.arrive()
        with pytest.raises(SimulationError):
            barrier.arrive()
