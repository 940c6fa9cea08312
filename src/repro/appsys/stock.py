"""The stock-keeping system.

"A stock-keeping system provides information about the components in
stock, the corresponding supplier as well as their quality" (paper,
Sect. 3).  Exported local functions:

* ``GetQuality(SupplierNo) -> (Qual)`` — quality rate of a supplier;
* ``GetNumber(SupplierNo, CompNo) -> (Number)`` — the stock-keeping
  number of a component for one supplier (the paper's simple case
  pins SupplierNo to the constant 1234);
* ``GetSupplier(CompNo) -> (SupplierNo)`` — the primary supplier of a
  component;
* ``GetStockComponents(SupplierNo) -> table(CompNo, Number)`` — all
  components a supplier stocks;
* ``SetQuality(SupplierNo, Qual) -> (Updated)`` — maintenance write
  updating a supplier's quality rate (invalidates this system's
  cached lookup results).
"""

from __future__ import annotations

from repro.appsys.base import ApplicationSystem, LocalFunction, load_table
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.fdbs.engine import Database
from repro.fdbs.types import INTEGER
from repro.sysmodel.machine import Machine


class StockKeepingSystem(ApplicationSystem):
    """Application system over stock and supplier-quality data."""

    LOOKUP_INDEXES = (
        ("supplier_quality", "supplier_no"),
        ("stock", "supplier_no"),
        ("stock", "comp_no"),
    )

    def __init__(
        self,
        machine: Machine | None = None,
        data: EnterpriseData | None = None,
    ):
        self._data = data if data is not None else generate_enterprise_data()
        super().__init__("stock", machine)

    def _populate(self, database: Database) -> None:
        database.execute(
            "CREATE TABLE stock (comp_no INT, supplier_no INT, number INT, "
            "PRIMARY KEY (comp_no, supplier_no))"
        )
        database.execute(
            "CREATE TABLE supplier_quality (supplier_no INT PRIMARY KEY, qual INT)"
        )
        load_table(
            database,
            "stock",
            [(r.comp_no, r.supplier_no, r.number) for r in self._data.stock],
        )
        load_table(
            database,
            "supplier_quality",
            [(s.supplier_no, s.quality) for s in self._data.suppliers],
        )
        self._register_functions(database)

    def _register_functions(self, database: Database) -> None:
        def get_quality(supplier_no: int):
            result = database.execute(
                "SELECT qual FROM supplier_quality WHERE supplier_no = ?",
                params=[supplier_no],
            )
            return result.rows

        def get_number(supplier_no: int, comp_no: int):
            result = database.execute(
                "SELECT number FROM stock WHERE supplier_no = ? AND comp_no = ?",
                params=[supplier_no, comp_no],
            )
            return result.rows

        def get_supplier(comp_no: int):
            result = database.execute(
                "SELECT supplier_no FROM stock WHERE comp_no = ? "
                "ORDER BY supplier_no FETCH FIRST 1 ROWS ONLY",
                params=[comp_no],
            )
            return result.rows

        def get_stock_components(supplier_no: int):
            result = database.execute(
                "SELECT comp_no, number FROM stock WHERE supplier_no = ? "
                "ORDER BY comp_no",
                params=[supplier_no],
            )
            return result.rows

        def set_quality(supplier_no: int, qual: int):
            result = database.execute(
                "UPDATE supplier_quality SET qual = ? WHERE supplier_no = ?",
                params=[qual, supplier_no],
            )
            return [(result.rowcount,)]

        self.register_function(
            LocalFunction(
                "GetQuality",
                params=[("SupplierNo", INTEGER)],
                returns=[("Qual", INTEGER)],
                implementation=get_quality,
                description="quality rate of a supplier",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetNumber",
                params=[("SupplierNo", INTEGER), ("CompNo", INTEGER)],
                returns=[("Number", INTEGER)],
                implementation=get_number,
                description="stock-keeping number of a component for a supplier",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetSupplier",
                params=[("CompNo", INTEGER)],
                returns=[("SupplierNo", INTEGER)],
                implementation=get_supplier,
                description="primary supplier of a component",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "GetStockComponents",
                params=[("SupplierNo", INTEGER)],
                returns=[("CompNo", INTEGER), ("Number", INTEGER)],
                implementation=get_stock_components,
                description="all components a supplier stocks",
                deterministic=True,
            )
        )
        self.register_function(
            LocalFunction(
                "SetQuality",
                params=[("SupplierNo", INTEGER), ("Qual", INTEGER)],
                returns=[("Updated", INTEGER)],
                implementation=set_quality,
                description="update a supplier's quality rate",
                mutates=True,
            )
        )
