"""Coupling layer: MED registry, fenced runtime costs, WfMS wrapper."""

import pytest

from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.errors import CatalogError, FencedModeError, WorkflowError
from repro.fdbs.catalog import ColumnDef, FunctionParam
from repro.fdbs.engine import Database
from repro.fdbs.types import INTEGER
from repro.simtime.costs import DEFAULT_COSTS
from repro.simtime.trace import TraceRecorder
from repro.wrapper.med import ForeignFunctionMapping, MedRegistry
from repro.wrapper.udtf_runtime import FencedUdtfContext


class TestMedRegistry:
    class EchoWrapper:
        def invoke_foreign(self, function_name, args):
            return [(function_name, *args)]

    def make(self):
        registry = MedRegistry()
        registry.create_wrapper("W", "test wrapper")
        registry.create_server("S", "W", self.EchoWrapper())
        registry.create_function_mapping(
            ForeignFunctionMapping(
                "F", [FunctionParam("x", INTEGER)], [ColumnDef("y", INTEGER)], "S"
            )
        )
        return registry

    def test_invoke_routes_to_server_handler(self):
        registry = self.make()
        assert registry.invoke("f", [1]) == [("f", 1)]

    def test_duplicate_wrapper_rejected(self):
        registry = self.make()
        with pytest.raises(CatalogError):
            registry.create_wrapper("w")

    def test_server_requires_wrapper(self):
        with pytest.raises(CatalogError):
            MedRegistry().create_server("S", "missing", self.EchoWrapper())

    def test_mapping_requires_server(self):
        registry = self.make()
        with pytest.raises(CatalogError):
            registry.create_function_mapping(
                ForeignFunctionMapping("G", [], [], "missing")
            )

    def test_unmapped_function_rejected(self):
        with pytest.raises(CatalogError):
            self.make().invoke("ghost", [])


class TestFencedContext:
    def test_in_process_connection_rejected(self):
        context = FencedUdtfContext(Database("x"))
        with pytest.raises(FencedModeError):
            context.connect_in_process()


class TestFencedRuntimeCosts:
    """The Fig. 6 cost structure, asserted per invocation path."""

    def test_access_udtf_charges_full_fenced_path(self, data):
        scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        server = scenario.server
        server.fdbs.execute("SELECT * FROM TABLE (GetQuality(1234)) AS GQ")
        start = server.machine.clock.now
        server.fdbs.execute("SELECT * FROM TABLE (GetQuality(1234)) AS GQ")
        elapsed = server.machine.clock.now - start
        floor = (
            DEFAULT_COSTS.udtf_prepare_access
            + DEFAULT_COSTS.rmi_call
            + DEFAULT_COSTS.controller_dispatch
            + DEFAULT_COSTS.local_function_base
            + DEFAULT_COSTS.udtf_finish_access
            + DEFAULT_COSTS.rmi_return
        )
        assert elapsed >= floor

    def test_disabled_controller_skips_rmi(self, data):
        with_controller = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        without = build_scenario(
            Architecture.ENHANCED_SQL_UDTF, data=data, controller_enabled=False
        )

        def hot_time(scenario):
            sql = "SELECT * FROM TABLE (GetQuality(1234)) AS GQ"
            scenario.server.fdbs.execute(sql)
            start = scenario.server.machine.clock.now
            scenario.server.fdbs.execute(sql)
            return scenario.server.machine.clock.now - start

        saved = hot_time(with_controller) - hot_time(without)
        expected = (
            DEFAULT_COSTS.rmi_call
            + DEFAULT_COSTS.rmi_return
            + DEFAULT_COSTS.controller_dispatch
        )
        assert saved == pytest.approx(expected, abs=0.01)

    def test_trace_labels_cover_the_whole_call(self, data):
        scenario = build_scenario(Architecture.ENHANCED_SQL_UDTF, data=data)
        scenario.call("GetSuppQual", "ACME Industrial")
        trace = TraceRecorder(scenario.server.machine.clock)
        with trace.span("TOTAL"):
            scenario.call("GetSuppQual", "ACME Industrial", trace=trace)
        names = set(trace.totals_by_name())
        assert {
            "Start I-UDTF",
            "Prepare A-UDTFs",
            "RMI calls",
            "controller runs",
            "Process activities",
            "Finish A-UDTFs",
            "RMI returns",
            "Finish I-UDTF",
        } <= names


class TestWfmsWrapper:
    def test_registers_connecting_udtf(self, wfms_scenario):
        function = wfms_scenario.server.fdbs.catalog.get_function("BuySuppComp")
        assert function.language == "WFMS"
        assert function.external_name == "wfms:BuySuppComp"

    def test_invoke_foreign_bypasses_sql(self, wfms_scenario):
        rows = wfms_scenario.server.wfms_wrapper.invoke_foreign(
            "BuySuppComp", [1234, "gearbox"]
        )
        assert rows == [("BUY",)]

    def test_invoke_foreign_rejects_non_wfms_functions(self, wfms_scenario):
        with pytest.raises(WorkflowError):
            wfms_scenario.server.wfms_wrapper.invoke_foreign("GetQuality", [1234])

    def test_signature_mismatch_rejected(self, data):
        from repro.wfms.builder import ProcessBuilder

        scenario = build_scenario(Architecture.WFMS, data=data)
        b = ProcessBuilder("Tiny", [("X", INTEGER)], [("Y", INTEGER)])
        b.program_activity(
            "A", "pdm.GetCompName", [("CompNo", INTEGER)], [("CompName", INTEGER)],
            {"CompNo": b.from_input("X")},
        )
        b.map_output("Y", b.from_input("X"))
        with pytest.raises(WorkflowError, match="parameter list"):
            scenario.server.wfms_wrapper.register_federated_function(
                b.build(), params=[], returns=[("Y", INTEGER)]
            )

    def test_wfms_trace_labels(self, data):
        scenario = build_scenario(Architecture.WFMS, data=data)
        scenario.call("GetSuppQual", "ACME Industrial")
        trace = TraceRecorder(scenario.server.machine.clock)
        with trace.span("TOTAL"):
            scenario.call("GetSuppQual", "ACME Industrial", trace=trace)
        names = set(trace.totals_by_name())
        assert {
            "Start UDTF",
            "Process UDTF",
            "RMI call",
            "Controller",
            "Start workflows and Java environment",
            "Process activities",
            "Workflow",
            "RMI return",
            "Finish UDTF",
        } <= names

    def test_disabled_controller_skips_brokerage(self, data):
        with_controller = build_scenario(Architecture.WFMS, data=data)
        without = build_scenario(
            Architecture.WFMS, data=data, controller_enabled=False
        )

        def hot_time(scenario):
            scenario.call("GetSuppQual", "ACME Industrial")
            start = scenario.server.machine.clock.now
            scenario.call("GetSuppQual", "ACME Industrial")
            return scenario.server.machine.clock.now - start

        saved = hot_time(with_controller) - hot_time(without)
        expected = (
            DEFAULT_COSTS.wf_rmi_call
            + DEFAULT_COSTS.wf_rmi_return
            + DEFAULT_COSTS.controller_wfms_brokerage
        )
        assert saved == pytest.approx(expected, abs=0.01)
