"""The unified FDBS→WfMS wrapper.

"A unified wrapper can be used to isolate the FDBS from the intricacies
of the federated function execution and to bridge to the WfMS" (paper,
Sect. 2).  For each federated function the wrapper

1. deploys the workflow process template implementing the mapping,
2. registers a *connecting UDTF* in the FDBS catalog (language tag
   ``WFMS``) whose implementation starts the process through the
   :class:`~repro.wfms.api.WfmsClient` and turns the output container
   into result rows.

The fenced runtime (:mod:`repro.wrapper.udtf_runtime`) adds the RMI and
controller hops around the implementation, so the wrapper itself stays
pure plumbing.
"""

from __future__ import annotations

from repro.errors import WorkflowError
from repro.fdbs.catalog import ColumnDef, ExternalTableFunction, FunctionParam
from repro.fdbs.engine import Database
from repro.fdbs.types import SqlType
from repro.wfms.api import WfmsClient
from repro.wfms.model import ProcessDefinition
from repro.wrapper.udtf_runtime import WFMS_LANGUAGE


class WfmsWrapper:
    """Bridges federated functions from the FDBS to workflow processes."""

    def __init__(self, database: Database, client: WfmsClient):
        self.database = database
        self.client = client
        self.registered: list[str] = []

    def register_federated_function(
        self,
        definition: ProcessDefinition,
        params: list[tuple[str, SqlType]] | None = None,
        returns: list[tuple[str, SqlType]] | None = None,
    ) -> ExternalTableFunction:
        """Deploy ``definition`` and expose it as a connecting UDTF.

        ``params`` / ``returns`` default to the process input / output
        container members — "the signature of the connecting UDTF hides
        the names of the functions and parameters handled by the
        workflow process" (trivial case), so overriding them is how name
        mappings happen.
        """
        self.client.deploy(definition)
        param_specs = params if params is not None else [
            (name, member_type) for name, member_type in definition.input_type.members
        ]
        return_specs = returns if returns is not None else [
            (name, member_type) for name, member_type in definition.output_type.members
        ]
        if len(param_specs) != len(definition.input_type.members):
            raise WorkflowError(
                f"federated function {definition.name!r}: parameter list must "
                "match the process input container"
            )
        if len(return_specs) != len(definition.output_type.members):
            raise WorkflowError(
                f"federated function {definition.name!r}: return list must "
                "match the process output container"
            )
        input_members = definition.input_type.member_names()
        output_members = definition.output_type.member_names()

        def implementation(*args: object):
            inputs = dict(zip(input_members, args))
            instance = self.client.run_process(definition.name, inputs)
            output = instance.output
            assert output is not None
            if output.rows is not None:
                return output.rows
            return [tuple(output.get(member) for member in output_members)]

        function = ExternalTableFunction(
            name=definition.name,
            params=[FunctionParam(n, t) for n, t in param_specs],
            returns=[ColumnDef(n, t) for n, t in return_specs],
            external_name=f"wfms:{definition.name}",
            language=WFMS_LANGUAGE,
            fenced=True,
            implementation=implementation,
        )
        self.database.register_external_function(function)
        self.registered.append(definition.name)
        return function

    def invoke_foreign(self, function_name: str, args: list[object]) -> list[tuple]:
        """SQL/MED wrapper interface: run a federated function directly
        (bypassing SQL), mainly for tests and the pure-WfMS topology."""
        function = self.database.catalog.get_function(function_name)
        if not isinstance(function, ExternalTableFunction) or (
            function.language.upper() != WFMS_LANGUAGE
        ):
            raise WorkflowError(
                f"{function_name!r} is not a WfMS-coupled federated function"
            )
        assert function.implementation is not None
        result = function.implementation(*args)
        from repro.fdbs.functions import normalize_rows

        return normalize_rows(result, function_name)
