"""Simulated processes, RMI channels, controller, machine lifecycle."""

import pytest

from repro.errors import ProcessStateError
from repro.simtime.clock import VirtualClock
from repro.simtime.costs import DEFAULT_COSTS
from repro.simtime.trace import ACTIVE_RECORDER, TraceRecorder
from repro.sysmodel.controller import Controller
from repro.sysmodel.machine import Machine
from repro.sysmodel.process import JavaVirtualMachine, OsProcess
from repro.sysmodel.rmi import RmiChannel


class TestOsProcess:
    def test_start_charges_cost(self):
        clock = VirtualClock()
        process = OsProcess("p", clock, start_cost=12.0)
        process.start()
        assert clock.now == 12.0
        assert process.running

    def test_double_start_rejected(self):
        process = OsProcess("p", VirtualClock(), 1.0)
        process.start()
        with pytest.raises(ProcessStateError):
            process.start()

    def test_ensure_running_is_idempotent_and_cheap(self):
        clock = VirtualClock()
        process = OsProcess("p", clock, 10.0)
        assert process.ensure_running() is True
        assert process.ensure_running() is False
        assert clock.now == 10.0
        assert process.start_count == 1

    def test_stop_requires_running(self):
        process = OsProcess("p", VirtualClock(), 1.0)
        with pytest.raises(ProcessStateError):
            process.stop()

    def test_restart_charges_again(self):
        clock = VirtualClock()
        process = OsProcess("p", clock, 10.0)
        process.start()
        process.stop()
        process.start()
        assert clock.now == 20.0
        assert process.start_count == 2

    def test_jvm_boot_cost(self):
        clock = VirtualClock()
        jvm = JavaVirtualMachine("jvm", clock, boot_cost=40.0)
        assert jvm.boot_cost == 40.0
        jvm.start()
        assert clock.now == 40.0


class TestRmiChannel:
    def test_invoke_charges_both_hops(self):
        clock = VirtualClock()
        channel = RmiChannel("c", clock, call_cost=8.0, return_cost=0.5)
        result = channel.invoke(lambda x: x * 2, 21)
        assert result == 42
        assert clock.now == pytest.approx(8.5)
        assert channel.call_count == 1

    def test_invoke_traces_hops(self):
        clock = VirtualClock()
        trace = TraceRecorder(clock)
        channel = RmiChannel("c", clock, 8.0, 0.5)
        token = ACTIVE_RECORDER.set(trace)
        try:
            with trace.span("total"):
                channel.invoke(
                    lambda: None, call_label="RMI call", return_label="RMI return"
                )
        finally:
            ACTIVE_RECORDER.reset(token)
        totals = trace.totals_by_name()
        assert totals["RMI call"] == pytest.approx(8.0)
        assert totals["RMI return"] == pytest.approx(0.5)

    def test_remote_exception_propagates(self):
        channel = RmiChannel("c", VirtualClock(), 1.0, 1.0)

        def boom():
            raise RuntimeError("remote failure")

        with pytest.raises(RuntimeError):
            channel.invoke(boom)


class TestController:
    def make(self):
        clock = VirtualClock()
        controller = Controller(clock, DEFAULT_COSTS)
        controller.start()
        return clock, controller

    def test_dispatch_charges_and_forwards(self):
        clock, controller = self.make()
        before = clock.now
        result = controller.dispatch(lambda a: a + 1, 1)
        assert result == 2
        assert clock.now - before == pytest.approx(DEFAULT_COSTS.controller_dispatch)
        assert controller.dispatch_count == 1

    def test_broker_workflow_charges_brokerage(self):
        clock, controller = self.make()
        before = clock.now
        controller.broker_workflow(lambda: "started")
        assert clock.now - before == pytest.approx(
            DEFAULT_COSTS.controller_wfms_brokerage
        )
        assert controller.brokerage_count == 1

    def test_dispatch_requires_running(self):
        controller = Controller(VirtualClock(), DEFAULT_COSTS)
        with pytest.raises(ProcessStateError):
            controller.dispatch(lambda: None)


class TestMachine:
    def test_ensure_base_services_starts_fdbs_and_controller(self):
        machine = Machine()
        assert machine.ensure_base_services() is True
        assert machine.fdbs_process.running
        assert machine.controller.running
        assert machine.clock.now == pytest.approx(
            DEFAULT_COSTS.fdbs_boot + DEFAULT_COSTS.controller_boot
        )

    def test_disabled_controller_never_started(self):
        machine = Machine(controller_enabled=False)
        machine.ensure_base_services()
        assert not machine.controller.running

    def test_boot_stops_processes_and_resets_warmth(self):
        machine = Machine()
        machine.ensure_base_services()
        machine.warmth.note_statement("q")
        machine.boot()
        assert not machine.fdbs_process.running
        assert machine.warmth.machine_cold
        assert not machine.warmth.statement_is_hot("q")

    def test_register_appsys_is_idempotent(self):
        machine = Machine()
        first = machine.register_appsys("stock")
        second = machine.register_appsys("stock")
        assert first is second

    def test_ensure_appsys_charges_boot_once(self):
        machine = Machine()
        start = machine.clock.now
        assert machine.ensure_appsys("pdm") is True
        assert machine.ensure_appsys("pdm") is False
        assert machine.clock.now - start == pytest.approx(DEFAULT_COSTS.appsys_boot)

    def test_ensure_wfms(self):
        machine = Machine()
        machine.ensure_wfms()
        assert machine.wfms_process.running
