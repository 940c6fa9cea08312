"""The product data management system.

"A product management system stores the bill of material" (paper,
Sect. 3).  Exported local functions:

* ``GetCompNo(CompName) -> (No)`` — the paper's trivial case maps the
  German federated function ``GibKompNr`` onto this one;
* ``GetCompName(CompNo) -> (CompName)`` — iterated by the cyclic-case
  federated function ``AllCompNames``;
* ``GetSubCompNo(CompNo) -> table(SubCompNo)`` — sub-components from
  the bill of material (independent case);
* ``GetMaxCompNo() -> (MaxNo)`` — upper bound for component iteration.
"""

from __future__ import annotations

from repro.appsys.base import ApplicationSystem, LocalFunction, load_table
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.fdbs.engine import Database
from repro.fdbs.types import INTEGER, VARCHAR
from repro.sysmodel.machine import Machine


class ProductDataManagementSystem(ApplicationSystem):
    """Application system over components and the bill of material."""

    LOOKUP_INDEXES = (
        ("components", "comp_no"),
        ("components", "comp_name"),
        ("bom", "comp_no"),
    )

    def __init__(
        self,
        machine: Machine | None = None,
        data: EnterpriseData | None = None,
    ):
        self._data = data if data is not None else generate_enterprise_data()
        super().__init__("pdm", machine)

    def _populate(self, database: Database) -> None:
        database.execute(
            "CREATE TABLE components (comp_no INT PRIMARY KEY, "
            "comp_name VARCHAR(60))"
        )
        database.execute(
            "CREATE TABLE bom (comp_no INT, sub_comp_no INT, "
            "PRIMARY KEY (comp_no, sub_comp_no))"
        )
        load_table(
            database,
            "components",
            [(c.comp_no, c.name) for c in self._data.components],
        )
        load_table(database, "bom", self._data.bom)
        self._register_functions(database)

    def _register_functions(self, database: Database) -> None:
        def get_comp_no(comp_name: str):
            return database.execute(
                "SELECT comp_no FROM components WHERE comp_name = ?",
                params=[comp_name],
            ).rows

        def get_comp_name(comp_no: int):
            return database.execute(
                "SELECT comp_name FROM components WHERE comp_no = ?",
                params=[comp_no],
            ).rows

        def get_sub_comp_no(comp_no: int):
            return database.execute(
                "SELECT sub_comp_no FROM bom WHERE comp_no = ? ORDER BY sub_comp_no",
                params=[comp_no],
            ).rows

        def get_max_comp_no():
            return database.execute("SELECT MAX(comp_no) FROM components").rows

        self.register_function(
            LocalFunction(
                "GetCompNo",
                params=[("CompName", VARCHAR(60))],
                returns=[("No", INTEGER)],
                implementation=get_comp_no,
                description="component number for a component name",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetCompName",
                params=[("CompNo", INTEGER)],
                returns=[("CompName", VARCHAR(60))],
                implementation=get_comp_name,
                description="component name for a component number",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetSubCompNo",
                params=[("CompNo", INTEGER)],
                returns=[("SubCompNo", INTEGER)],
                implementation=get_sub_comp_no,
                description="sub-components from the bill of material",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetMaxCompNo",
                params=[],
                returns=[("MaxNo", INTEGER)],
                implementation=get_max_comp_no,
                description="largest component number",
                deterministic=True,
            )
        )
