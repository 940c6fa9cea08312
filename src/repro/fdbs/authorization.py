"""Access control for the FDBS.

The paper's Sect. 6 lists access control among the open questions of
the architecture; this module supplies the classic SQL answer scoped to
the reproduction's objects:

* users (plus the bootstrap superuser ``SYSTEM`` and the pseudo-grantee
  ``PUBLIC``),
* privileges: SELECT/INSERT/UPDATE/DELETE on tables and nicknames,
  EXECUTE on functions (including federated functions — the connecting
  UDTFs) and procedures,
* ``GRANT`` / ``REVOKE`` statements and a per-statement current user.

SQL table functions execute their bodies with *definer* rights (DB2's
model): a user needs EXECUTE on ``BuySuppComp`` but not on the A-UDTFs
its body touches — exactly the encapsulation the integration server
wants at its top interface.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import AuthorizationError, CatalogError
from repro.fdbs import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.fdbs.catalog import Catalog

SUPERUSER = "SYSTEM"
PUBLIC = "PUBLIC"


class Privilege(enum.Enum):
    """Grantable privileges."""

    SELECT = "SELECT"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    EXECUTE = "EXECUTE"


#: Which privileges make sense per object kind.
_TABLE_PRIVILEGES = frozenset(
    {Privilege.SELECT, Privilege.INSERT, Privilege.UPDATE, Privilege.DELETE}
)
_ROUTINE_PRIVILEGES = frozenset({Privilege.EXECUTE})


class AuthorizationManager:
    """Users and grants of one database."""

    def __init__(self) -> None:
        self._users: set[str] = {SUPERUSER}
        # (object kind, object name) -> privilege -> grantees
        self._grants: dict[tuple[str, str], dict[Privilege, set[str]]] = {}

    # -- users ------------------------------------------------------------------

    def create_user(self, name: str) -> None:
        """Register a new user (reserved/duplicate names rejected)."""
        key = name.upper()
        if key in (PUBLIC,):
            raise CatalogError(f"{name!r} is a reserved grantee name")
        if key in self._users:
            raise CatalogError(f"user {name!r} already exists")
        self._users.add(key)

    def require_user(self, name: str) -> str:
        """Validate a grantee name and return its canonical key."""
        key = name.upper()
        if key != PUBLIC and key not in self._users:
            raise CatalogError(f"unknown user {name!r}")
        return key

    def users(self) -> list[str]:
        """All user names, sorted."""
        return sorted(self._users)

    # -- grants ------------------------------------------------------------------

    def _validate(self, privilege: Privilege, kind: str) -> None:
        allowed = _ROUTINE_PRIVILEGES if kind in ("function", "procedure") else _TABLE_PRIVILEGES
        if privilege not in allowed:
            raise CatalogError(
                f"privilege {privilege.value} is not applicable to a {kind}"
            )

    def grant(self, privilege: Privilege, kind: str, name: str, grantee: str) -> None:
        """Grant a privilege on an object to a user or PUBLIC."""
        self._validate(privilege, kind)
        grantee_key = self.require_user(grantee)
        bucket = self._grants.setdefault((kind, name.upper()), {})
        bucket.setdefault(privilege, set()).add(grantee_key)

    def revoke(self, privilege: Privilege, kind: str, name: str, grantee: str) -> None:
        """Revoke a previously granted privilege (idempotent)."""
        self._validate(privilege, kind)
        grantee_key = grantee.upper()
        bucket = self._grants.get((kind, name.upper()), {})
        holders = bucket.get(privilege)
        if holders is not None:
            holders.discard(grantee_key)

    def is_granted(self, privilege: Privilege, kind: str, name: str, user: str) -> bool:
        """Whether the user holds the privilege (directly or via PUBLIC)."""
        user_key = user.upper()
        if user_key == SUPERUSER:
            return True
        holders = self._grants.get((kind, name.upper()), {}).get(privilege, set())
        return user_key in holders or PUBLIC in holders

    def check(self, privilege: Privilege, kind: str, name: str, user: str) -> None:
        """Raise AuthorizationError unless the privilege is held."""
        if not self.is_granted(privilege, kind, name, user):
            raise AuthorizationError(
                f"user {user!r} lacks {privilege.value} on {kind} {name!r}"
            )


# ---------------------------------------------------------------------------
# Statement object collection
# ---------------------------------------------------------------------------


def required_privileges(
    statement: ast.Statement, catalog: "Catalog"
) -> list[tuple[Privilege, str, str]]:
    """The (privilege, object kind, object name) set a statement needs.

    SELECT statements need SELECT on every table/nickname and EXECUTE on
    every table function referenced anywhere (including subqueries); DML
    needs the corresponding table privilege plus whatever its
    expressions read; CALL needs EXECUTE on the procedure.
    """
    needed: list[tuple[Privilege, str, str]] = []
    if isinstance(statement, ast.Select):
        _collect_select(statement, catalog, needed)
    elif isinstance(statement, ast.Insert):
        needed.append((Privilege.INSERT, "table", statement.table))
        if statement.source is not None:
            _collect_select(statement.source, catalog, needed)
        for row in statement.rows or []:
            for expr in row:
                _collect_expr(expr, catalog, needed)
    elif isinstance(statement, ast.Update):
        needed.append((Privilege.UPDATE, "table", statement.table))
        for _, expr in statement.assignments:
            _collect_expr(expr, catalog, needed)
        if statement.where is not None:
            _collect_expr(statement.where, catalog, needed)
    elif isinstance(statement, ast.Delete):
        needed.append((Privilege.DELETE, "table", statement.table))
        if statement.where is not None:
            _collect_expr(statement.where, catalog, needed)
    elif isinstance(statement, ast.Call):
        needed.append((Privilege.EXECUTE, "procedure", statement.name))
        for expr in statement.args:
            _collect_expr(expr, catalog, needed)
    return needed


def _collect_select(select: ast.Select, catalog, needed) -> None:
    for item in select.from_items:
        _collect_from_item(item, catalog, needed)
    for select_item in select.items:
        _collect_expr(select_item.expr, catalog, needed)
    for expr in (select.where, select.having):
        if expr is not None:
            _collect_expr(expr, catalog, needed)
    for expr in select.group_by:
        _collect_expr(expr, catalog, needed)
    for order in select.order_by:
        _collect_expr(order.expr, catalog, needed)
    for _, branch in select.union:
        _collect_select(branch, catalog, needed)


def _collect_from_item(item: ast.FromItem, catalog, needed) -> None:
    if isinstance(item, ast.TableRef):
        needed.append((Privilege.SELECT, "table", item.name))
    elif isinstance(item, ast.TableFunctionRef):
        needed.append((Privilege.EXECUTE, "function", item.function_name))
        for arg in item.args:
            _collect_expr(arg, catalog, needed)
    elif isinstance(item, ast.SubquerySource):
        _collect_select(item.select, catalog, needed)
    elif isinstance(item, ast.Join):
        _collect_from_item(item.left, catalog, needed)
        _collect_from_item(item.right, catalog, needed)
        if item.on is not None:
            _collect_expr(item.on, catalog, needed)


def _collect_expr(expr: ast.Expression, catalog, needed) -> None:
    if isinstance(expr, (ast.ScalarSubquery, ast.Exists)):
        _collect_select(expr.subquery, catalog, needed)
        return
    if isinstance(expr, ast.InSubquery):
        _collect_expr(expr.operand, catalog, needed)
        _collect_select(expr.subquery, catalog, needed)
        return
    from repro.fdbs.expr import _children

    for child in _children(expr):
        _collect_expr(child, catalog, needed)
