"""Session templates: what a serving worker's isolated sessions start from.

In isolated serving every session gets its own integration server
(own machine, clock, caches and fault injector), so that its rows and
simulated times depend on its own calls alone.  Built from scratch,
each such server would load the three application systems again,
compile every federated function again and parse every statement its
fresh databases meet again, although none of that depends on the
session.

A :class:`SessionTemplate` keeps those things once per shard process
and stamps each session's server from them; a session runs on its stamp
through :func:`repro.serving.shard.run_script`.  (The shared-state
:class:`~repro.serving.server.ConcurrentIntegrationServer` stamps one
server per architecture from its own template.)  A stamp builds only
what a session can change or observe.  Shared between stamps:

* a :class:`~repro.fdbs.session.ParseMap` that every database of every
  stamped server (the FDBS, the application systems' private databases,
  heterogeneous remote sources) reads parsed statements from;
* the application systems, loaded once at the first stamp; each stamp
  forks them (:meth:`~repro.appsys.base.ApplicationSystem.fork`) onto
  its own machine.  A fork's tables read the template's rows and
  indexes until the session first writes one, which then takes a
  private copy (:meth:`~repro.fdbs.storage.Table.fork`); the template's
  own tables are never written;
* one :class:`~repro.core.scenario.Deployment` per architecture: the
  scenario functions compiled (WfMS process templates built and
  validated) by the first stamp of that architecture, which every later
  stamp installs as is.

Everything else is built per stamp exactly as
:func:`~repro.core.scenario.build_scenario` builds it, so a stamped
server returns the rows and charges the simulated times of a fresh one.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

from repro.appsys.base import ApplicationSystem
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import (
    Deployment,
    build_scenario,
    compile_deployment,
    scenario_functions,
)
from repro.core.server import IntegrationServer, resolve_local, scenario_systems
from repro.fdbs.options import DEFAULT_OPTIONS, Options
from repro.fdbs.session import ParseMap
from repro.simtime.costs import CostModel

#: Statement texts one template's parse map holds before it drops the
#: oldest.  A serving round meets about a hundred distinct texts.
PARSE_CAPACITY = 1024


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to stamp isolated session servers.

    A process shard receives the whole object once, at worker start, so
    every field must pickle: the enterprise universe, the cost model and
    the frozen :class:`~repro.fdbs.options.Options` all do.
    ``setup_sql`` statements run on each fresh session server before its
    script (the battery-through-serving suite uses this for
    DDL/loads/RUNSTATS), in row mode; ``options.execution_mode`` applies
    after setup.
    """

    data: EnterpriseData | None = None
    costs: CostModel | None = None
    controller_enabled: bool = True
    heterogeneous: bool = False
    setup_sql: tuple[str, ...] = field(default_factory=tuple)
    options: Options = DEFAULT_OPTIONS


class SessionTemplate:
    """Stamps isolated session servers that share parses, loaded data
    and compiled deployments.

    The application systems are loaded by the first :meth:`stamp`, and
    each architecture's deployment compiled by its first stamp, never at
    construction, so a worker reports ready without paying for them.
    One set of systems serves every architecture: they do not depend on
    it.
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        self.data = config.data if config.data is not None else generate_enterprise_data()
        self.parses = ParseMap(PARSE_CAPACITY)
        self._systems: list[ApplicationSystem] | None = None
        self._deployments: dict[Architecture, Deployment] = {}
        self._lock = threading.RLock()

    def shared(self) -> list[ApplicationSystem]:
        """The loaded application systems every stamp forks (loaded once)."""
        with self._lock:
            if self._systems is None:
                systems = scenario_systems(None, self.data)
                for system in systems:
                    system.build_lookup_indexes()
                self._systems = systems
            return self._systems

    def deployment(self, architecture: Architecture) -> Deployment:
        """The scenario functions compiled for ``architecture`` against
        the shared systems' signatures (compiled once)."""
        with self._lock:
            deployment = self._deployments.get(architecture)
            if deployment is None:
                systems = {system.name: system for system in self.shared()}
                deployment = compile_deployment(
                    architecture,
                    scenario_functions(),
                    functools.partial(resolve_local, systems),
                )
                self._deployments[architecture] = deployment
            return deployment

    def stamp(
        self, architecture: Architecture, faults: dict | None = None
    ) -> IntegrationServer:
        """A fresh session server for ``architecture``.

        It is :func:`~repro.core.scenario.build_scenario`'s server with
        forked application systems, the shared parse map and the
        architecture's shared deployment, built in row mode;
        ``setup_sql`` runs, then the configured execution mode applies.
        ``faults`` arms its own fault injector.
        """
        config = self.config
        options = config.options
        parses = self.parses
        deployment = self.deployment(architecture)
        server = build_scenario(
            architecture,
            costs=config.costs,
            controller_enabled=config.controller_enabled,
            data=self.data,
            faults=faults,
            heterogeneous=config.heterogeneous,
            system_factories=[
                functools.partial(system.fork, parses=parses)
                for system in self.shared()
            ],
            parses=parses,
            deployment=deployment,
            options=options,
            execution_mode="row",
        ).server
        for statement in config.setup_sql:
            server.fdbs.execute(statement)
        server.fdbs.configure(execution_mode=options.execution_mode)
        return server


__all__ = ["PARSE_CAPACITY", "SessionTemplate", "ShardConfig"]
