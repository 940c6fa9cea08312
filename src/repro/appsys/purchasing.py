"""The purchasing system.

"A purchasing system keeps information about the suppliers and their
reliability" and provides the decision support of the paper's Sect. 1
scenario.  Exported local functions:

* ``GetReliability(SupplierNo) -> (Relia)``;
* ``GetSupplierNo(SupplierName) -> (SupplierNo)`` (the linear case);
* ``GetSupplierName(SupplierNo) -> (SupplierName)``;
* ``GetGrade(Qual, Relia) -> (Grade)`` — the component grade computed
  from quality and reliability;
* ``DecidePurchase(Grade, No) -> (Answer)`` — the purchase proposal;
* ``GetCompSupp4Discount(Discount) -> table(CompNo, SupplierNo)`` —
  suppliers offering at least the given discount (independent case);
* ``SetReliability(SupplierNo, Relia) -> (Updated)`` — maintenance
  write updating a supplier's reliability (invalidates this system's
  cached lookup results).
"""

from __future__ import annotations

from repro.appsys.base import ApplicationSystem, LocalFunction, load_table
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.fdbs.engine import Database
from repro.fdbs.types import INTEGER, VARCHAR
from repro.sysmodel.machine import Machine


def compute_grade(qual: int | None, relia: int | None) -> int | None:
    """The component grade: a 1..10 blend weighting quality double."""
    if qual is None or relia is None:
        return None
    grade = (2 * qual + relia + 1) // 3
    return max(1, min(10, grade))


def decide(grade: int | None, comp_no: int | None) -> str:
    """The purchase proposal for a component grade."""
    if comp_no is None:
        return "UNKNOWN COMPONENT"
    if grade is None:
        return "NO GRADE"
    if grade >= 6:
        return "BUY"
    if grade >= 4:
        return "NEGOTIATE"
    return "REJECT"


class PurchasingSystem(ApplicationSystem):
    """Application system over supplier reliability and discounts."""

    LOOKUP_INDEXES = (("suppliers", "supplier_no"), ("suppliers", "supplier_name"))

    def __init__(
        self,
        machine: Machine | None = None,
        data: EnterpriseData | None = None,
    ):
        self._data = data if data is not None else generate_enterprise_data()
        super().__init__("purchasing", machine)

    def _populate(self, database: Database) -> None:
        database.execute(
            "CREATE TABLE suppliers (supplier_no INT PRIMARY KEY, "
            "supplier_name VARCHAR(60), relia INT)"
        )
        database.execute(
            "CREATE TABLE discounts (comp_no INT, supplier_no INT, discount INT, "
            "PRIMARY KEY (comp_no, supplier_no))"
        )
        load_table(
            database,
            "suppliers",
            [(s.supplier_no, s.name, s.reliability) for s in self._data.suppliers],
        )
        load_table(
            database,
            "discounts",
            [(d.comp_no, d.supplier_no, d.discount) for d in self._data.discounts],
        )
        self._register_functions(database)

    def _register_functions(self, database: Database) -> None:
        def get_reliability(supplier_no: int):
            return database.execute(
                "SELECT relia FROM suppliers WHERE supplier_no = ?",
                params=[supplier_no],
            ).rows

        def get_supplier_no(supplier_name: str):
            return database.execute(
                "SELECT supplier_no FROM suppliers WHERE supplier_name = ?",
                params=[supplier_name],
            ).rows

        def get_supplier_name(supplier_no: int):
            return database.execute(
                "SELECT supplier_name FROM suppliers WHERE supplier_no = ?",
                params=[supplier_no],
            ).rows

        def get_comp_supp_for_discount(discount: int):
            return database.execute(
                "SELECT comp_no, supplier_no FROM discounts WHERE discount >= ? "
                "ORDER BY comp_no, supplier_no",
                params=[discount],
            ).rows

        def set_reliability(supplier_no: int, relia: int):
            result = database.execute(
                "UPDATE suppliers SET relia = ? WHERE supplier_no = ?",
                params=[relia, supplier_no],
            )
            return [(result.rowcount,)]

        self.register_function(
            LocalFunction(
                "GetReliability",
                params=[("SupplierNo", INTEGER)],
                returns=[("Relia", INTEGER)],
                implementation=get_reliability,
                description="reliability rate of a supplier",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetSupplierNo",
                params=[("SupplierName", VARCHAR(60))],
                returns=[("SupplierNo", INTEGER)],
                implementation=get_supplier_no,
                description="supplier number for a supplier name",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetSupplierName",
                params=[("SupplierNo", INTEGER)],
                returns=[("SupplierName", VARCHAR(60))],
                implementation=get_supplier_name,
                description="supplier name for a supplier number",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetGrade",
                params=[("Qual", INTEGER), ("Relia", INTEGER)],
                returns=[("Grade", INTEGER)],
                implementation=lambda qual, relia: compute_grade(qual, relia),
                description="component grade from quality and reliability",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "DecidePurchase",
                params=[("Grade", INTEGER), ("No", INTEGER)],
                returns=[("Answer", VARCHAR(40))],
                implementation=lambda grade, no: decide(grade, no),
                description="purchase proposal for a graded component",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetCompSupp4Discount",
                params=[("Discount", INTEGER)],
                returns=[("CompNo", INTEGER), ("SupplierNo", INTEGER)],
                implementation=get_comp_supp_for_discount,
                description="components purchasable with at least the discount",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "SetReliability",
                params=[("SupplierNo", INTEGER), ("Relia", INTEGER)],
                returns=[("Updated", INTEGER)],
                implementation=set_reliability,
                description="update a supplier's reliability rate",
                mutates=True,
            )
        )
