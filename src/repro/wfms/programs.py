"""Program and helper registries.

A *program* is what a program activity invokes — in the paper, a Java
program calling one local function of an application system.  The
registry maps program identifiers (``"stock.GetQuality"``) to callables
taking the input-container values and returning the output-container
values.

:class:`LocalFunctionProgram` adapts an application-system local
function to this interface, including the single-row/first-row
convention the paper's workflows use (activities pass scalar container
members, not tables; table-valued helpers aggregate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ActivityFailedError, WorkflowError

if TYPE_CHECKING:  # pragma: no cover
    from repro.appsys.base import ApplicationSystem

ProgramFn = Callable[[dict[str, object]], dict[str, object]]


class ProgramRegistry:
    """Maps program / helper identifiers to callables."""

    def __init__(self) -> None:
        self._programs: dict[str, ProgramFn] = {}
        self._helpers: dict[str, ProgramFn] = {}

    def register_program(self, name: str, fn: ProgramFn) -> None:
        """Register a program implementation (duplicates rejected)."""
        key = name.upper()
        if key in self._programs:
            raise WorkflowError(f"program {name!r} is already registered")
        self._programs[key] = fn

    def register_helper(self, name: str, fn: ProgramFn) -> None:
        """Register a helper implementation (duplicates rejected)."""
        key = name.upper()
        if key in self._helpers:
            raise WorkflowError(f"helper {name!r} is already registered")
        self._helpers[key] = fn

    def add_helpers(self, other: "ProgramRegistry") -> None:
        """Register every helper of ``other`` that is not registered
        here yet (a compiled workflow brings the helpers it calls)."""
        for key, fn in other._helpers.items():
            self._helpers.setdefault(key, fn)

    def program(self, name: str) -> ProgramFn:
        """Look up a program by identifier."""
        try:
            return self._programs[name.upper()]
        except KeyError:
            raise WorkflowError(f"unknown program {name!r}") from None

    def helper(self, name: str) -> ProgramFn:
        """Look up a helper by identifier."""
        try:
            return self._helpers[name.upper()]
        except KeyError:
            raise WorkflowError(f"unknown helper {name!r}") from None

    def has_program(self, name: str) -> bool:
        """True if a program with that identifier exists."""
        return name.upper() in self._programs

    def has_helper(self, name: str) -> bool:
        """True if a helper with that identifier exists."""
        return name.upper() in self._helpers


class LocalFunctionProgram:
    """Adapts one application-system local function to a program.

    ``param_order`` lists the input-container members in the positional
    order of the local function's parameters; ``output_names`` names the
    output-container members in result-column order.  If the local
    function returns several rows, the *first* row feeds the scalar
    output members and the full row list is exposed under
    ``output_names[i] + '_ROWS'`` when ``expose_rows`` is set (used by
    table-valued mappings).
    """

    def __init__(
        self,
        appsys: "ApplicationSystem",
        function_name: str,
        param_order: list[str],
        output_names: list[str],
        expose_rows: bool = False,
    ):
        self.appsys = appsys
        self.function_name = function_name
        self.param_order = param_order
        self.output_names = output_names
        self.expose_rows = expose_rows

    @property
    def identifier(self) -> str:
        """'system.Function' registry identifier."""
        return f"{self.appsys.name}.{self.function_name}"

    def __call__(self, inputs: dict[str, object]) -> dict[str, object]:
        upper_inputs = {k.upper(): v for k, v in inputs.items()}
        args = []
        for member in self.param_order:
            key = member.upper()
            if key not in upper_inputs:
                raise ActivityFailedError(
                    self.identifier,
                    WorkflowError(f"input member {member!r} is unset"),
                )
            args.append(upper_inputs[key])
        rows = self.appsys.call(self.function_name, *args)
        outputs: dict[str, object] = {}
        if rows:
            first = rows[0]
            if len(first) != len(self.output_names):
                raise ActivityFailedError(
                    self.identifier,
                    WorkflowError(
                        f"{self.function_name} returned rows of width "
                        f"{len(first)}, expected {len(self.output_names)}"
                    ),
                )
            for name, value in zip(self.output_names, first):
                outputs[name] = value
        else:
            for name in self.output_names:
                outputs[name] = None
        if self.expose_rows:
            outputs["ROWS"] = rows
        return outputs
