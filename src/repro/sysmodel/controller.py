"""The controller process of Sect. 4.

DB2's fenced-mode security restriction forbids a UDTF process from
connecting to a database on the same server; the paper introduces a
*controller* that (a) isolates the UDTF process from the process holding
the connection, and (b) is started exactly once when the environment
boots, keeping the WfMS connection alive so that each federated-function
call is spared the connect cost.

For the ablation experiment (E6) the controller can be disabled, in
which case callers short-circuit the RMI hop and the dispatch costs —
the hypothetical "prototype without the controller" of the paper.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.simtime.clock import VirtualClock
from repro.simtime.costs import CostModel
from repro.simtime.trace import maybe_span
from repro.sysmodel.process import OsProcess


class Controller(OsProcess):
    """Connection broker between fenced UDTFs and the FDBS / WfMS."""

    def __init__(self, clock: VirtualClock, costs: CostModel, enabled: bool = True):
        super().__init__("controller", clock, start_cost=costs.controller_boot)
        self._costs = costs
        self.enabled = enabled
        self.dispatch_count = 0
        self.brokerage_count = 0
        #: Guards the two counters; never held across the target call.
        self._counter_lock = threading.Lock()

    def dispatch(
        self,
        target: Callable[..., Any],
        *args: Any,
        label: str = "controller run",
        **kwargs: Any,
    ) -> Any:
        """Forward one A-UDTF request to ``target`` (a local function or
        an in-FDBS statement), charging the per-dispatch overhead."""
        self.require_running()
        with self._counter_lock:
            self.dispatch_count += 1
        with maybe_span(label):
            self._clock.advance(self._costs.controller_dispatch)
        return target(*args, **kwargs)

    def broker_workflow(
        self,
        start: Callable[..., Any],
        *args: Any,
        label: str = "Controller",
        **kwargs: Any,
    ) -> Any:
        """Broker one workflow start through the live WfMS connection."""
        self.require_running()
        with self._counter_lock:
            self.brokerage_count += 1
        with maybe_span(label):
            self._clock.advance(self._costs.controller_wfms_brokerage)
        return start(*args, **kwargs)
