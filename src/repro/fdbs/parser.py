"""Parser for the FDBS SQL dialect.

Produces :mod:`repro.fdbs.ast` nodes: recursive descent for statements,
precedence climbing for expressions.  The grammar mirrors the DB2 v7.1
subset the paper exercises, including the deliberately reproduced
restrictions:

* ``TABLE (f(args))`` references require a correlation name;
* ``LANGUAGE SQL`` function bodies are a single ``RETURN <select>``
  statement — ``BEGIN ... END`` bodies raise
  :class:`~repro.errors.OneStatementError`;
* procedures (``CREATE PROCEDURE``) do get ``BEGIN ... END`` bodies with
  control structures, but are CALL-only (enforced by the planner).
"""

from __future__ import annotations

from decimal import Decimal

from repro.errors import OneStatementError, ParseError
from repro.fdbs import ast
from repro.fdbs.lexer import Token, TokenType, tokenize
from repro.fdbs.types import SqlType, parse_type

_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR
_PUNCTUATION = TokenType.PUNCTUATION

# Expression binding levels, loosest first.
_OR, _AND, _NOT, _PREDICATE, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 8)

#: Level of every infix operator, keyed by keyword or operator spelling.
#: ``NOT`` is infix only in ``NOT IN``, ``NOT LIKE`` and ``NOT BETWEEN``.
_INFIX = {
    "OR": _OR,
    "AND": _AND,
    **dict.fromkeys(
        ("=", "<>", "!=", "<", "<=", ">", ">=", "IS", "IN", "LIKE", "BETWEEN", "NOT"),
        _PREDICATE,
    ),
    **dict.fromkeys(("+", "-", "||"), _ADDITIVE),
    **dict.fromkeys(("*", "/"), _MULTIPLICATIVE),
}
_NEGATABLE = ("IN", "LIKE", "BETWEEN")
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


class Parser:
    """Parses one token stream into statements."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # ``?`` markers seen so far; never reset, so a script numbers its
        # markers across statements.
        self._parameters = 0

    # -- token helpers ---------------------------------------------------------

    # Only ``_advance`` may meet EOF; the others consume a token of a given
    # type, never EOF, and so step ``pos`` directly.

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _KEYWORD and token.value in keywords

    def _accept_keyword(self, *keywords: str) -> Token | None:
        token = self.tokens[self.pos]
        if token.type is _KEYWORD and token.value in keywords:
            self.pos += 1
            return token
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _KEYWORD or token.value != keyword:
            raise self._error(f"expected {keyword}, found {token}")
        self.pos += 1
        return token

    def _check_punct(self, value: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _PUNCTUATION and token.value == value

    def _accept_punct(self, value: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _PUNCTUATION and token.value == value:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _PUNCTUATION or token.value != value:
            raise self._error(f"expected {value!r}, found {token}")
        self.pos += 1
        return token

    def _check_operator(self, value: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _OPERATOR and token.value == value

    def _accept_operator(self, value: str) -> bool:
        if self._check_operator(value):
            self.pos += 1
            return True
        return False

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if token.type is not TokenType.IDENTIFIER:
            raise self._error(f"expected {what}, found {token}")
        self.pos += 1
        return token.value

    def _accept_soft(self, *words: str) -> str | None:
        """Accept a *soft* keyword: an identifier matching one of ``words``."""
        token = self._peek()
        if token.type is TokenType.IDENTIFIER and token.value.upper() in words:
            self._advance()
            return token.value.upper()
        return None

    def _expect_soft(self, word: str) -> None:
        if self._accept_soft(word) is None:
            raise self._error(f"expected {word}, found {self._peek()}")

    def _integer(self, message: str) -> int:
        """Consume an unsigned integer literal, or raise ``message``."""
        token = self.tokens[self.pos]
        if token.type is not TokenType.NUMBER or not token.value.isdecimal():
            raise self._error(message)
        self.pos += 1
        return int(token.value)

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message} (line {token.line}, column {token.column})")

    # -- entry points ------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement, requiring EOF (or ';' EOF) after."""
        statement = self._statement()
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input: {self._peek()}")
        return statement

    def parse_script(self) -> list[ast.Statement]:
        """Parse a ';'-separated sequence of statements."""
        statements: list[ast.Statement] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self._statement())
            if not self._accept_punct(";"):
                break
        if self._peek().type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input: {self._peek()}")
        return statements

    def parse_expression(self) -> ast.Expression:
        """Parse a standalone expression (testing / tooling helper)."""
        expr = self._expression()
        if self._peek().type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input: {self._peek()}")
        return expr

    # -- statements -----------------------------------------------------------------

    def _statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            return self._select()
        if self._check_keyword("CREATE"):
            return self._create()
        if self._check_keyword("DROP"):
            return self._drop()
        if self._check_keyword("INSERT"):
            return self._insert()
        if self._check_keyword("UPDATE"):
            return self._update()
        if self._check_keyword("DELETE"):
            return self._delete()
        if self._check_keyword("CALL"):
            return self._call()
        if self._accept_keyword("COMMIT"):
            self._accept_soft("WORK")
            return ast.Commit()
        if self._accept_keyword("ROLLBACK"):
            self._accept_soft("WORK")
            return ast.Rollback()
        if self._accept_keyword("EXPLAIN"):
            analyze = self._accept_soft("ANALYZE") is not None
            return ast.Explain(self._select(), analyze=analyze)
        if self._check_keyword("GRANT"):
            return self._grant_revoke(grant=True)
        if self._check_keyword("REVOKE"):
            return self._grant_revoke(grant=False)
        if self._accept_soft("RUNSTATS", "ANALYZE") is not None:
            self._accept_keyword("ON")
            self._accept_keyword("TABLE")
            return ast.Runstats(self._expect_identifier("table name"))
        raise self._error(f"unexpected statement start: {self._peek()}")

    def _grant_revoke(self, grant: bool) -> ast.Statement:
        self._advance()  # GRANT / REVOKE
        privileges = [self._privilege()]
        while self._accept_punct(","):
            privileges.append(self._privilege())
        self._expect_keyword("ON")
        kind: str | None = None
        if self._accept_keyword("TABLE"):
            kind = "table"
        elif self._accept_keyword("FUNCTION"):
            kind = "function"
        elif self._accept_keyword("PROCEDURE"):
            kind = "procedure"
        object_name = self._expect_identifier("object name")
        if grant:
            self._expect_keyword("TO")
            grantee = self._expect_identifier("grantee")
            return ast.Grant(privileges, kind, object_name, grantee)
        self._expect_keyword("FROM")
        grantee = self._expect_identifier("grantee")
        return ast.Revoke(privileges, kind, object_name, grantee)

    def _privilege(self) -> str:
        token = self._accept_keyword("SELECT", "INSERT", "UPDATE", "DELETE")
        if token is not None:
            return token.value
        if self._accept_soft("EXECUTE"):
            return "EXECUTE"
        raise self._error(f"expected a privilege, found {self._peek()}")

    # SELECT ------------------------------------------------------------------------

    def _select(self) -> ast.Select:
        select = self._select_core()
        while self._accept_keyword("UNION"):
            is_all = self._accept_keyword("ALL") is not None
            branch = self._select_core()
            select.union.append((is_all, branch))
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            select.order_by = self._order_items()
        select.limit = self._fetch_first()
        return select

    def _select_core(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        elif self._accept_keyword("ALL"):
            pass
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        from_items: list[ast.FromItem] = []
        if self._accept_keyword("FROM"):
            from_items.append(self._from_item())
            while self._accept_punct(","):
                from_items.append(self._from_item())
        where = self._expression() if self._accept_keyword("WHERE") else None
        group_by: list[ast.Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expression())
            while self._accept_punct(","):
                group_by.append(self._expression())
        having = self._expression() if self._accept_keyword("HAVING") else None
        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._check_operator("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (
            self._peek().type is TokenType.IDENTIFIER
            and self._peek(1).matches(TokenType.PUNCTUATION, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            qualifier = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(qualifier))
        expr = self._expression()
        alias: str | None = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("column alias")
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _order_items(self) -> list[ast.OrderItem]:
        items = [self._order_item()]
        while self._accept_punct(","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    def _fetch_first(self) -> int | None:
        if self._accept_keyword("FETCH"):
            self._expect_soft("FIRST")
            count = self._integer("expected row count after FETCH FIRST")
            if self._accept_soft("ROWS", "ROW") is None:
                raise self._error("expected ROWS after the row count")
            self._expect_soft("ONLY")
            return count
        if self._accept_keyword("LIMIT"):
            return self._integer("expected row count after LIMIT")
        return None

    # FROM ---------------------------------------------------------------------------

    def _from_item(self) -> ast.FromItem:
        item = self._from_primary()
        while True:
            kind = self._join_kind()
            if kind is None:
                return item
            right = self._from_primary()
            on: ast.Expression | None = None
            if kind != "CROSS" and self._accept_keyword("ON"):
                on = self._expression()
            item = ast.Join(kind=kind, left=item, right=right, on=on)

    def _join_kind(self) -> str | None:
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "CROSS"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "INNER"
        if self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "LEFT OUTER"
        if self._accept_keyword("JOIN"):
            return "INNER"
        return None

    def _from_primary(self) -> ast.FromItem:
        if self._accept_keyword("TABLE"):
            return self._table_function_ref()
        if self._check_punct("("):
            self._advance()
            if self._check_keyword("SELECT"):
                select = self._select()
                self._expect_punct(")")
                alias = self._correlation_name(required=True, what="derived table")
                return ast.SubquerySource(select, alias)
            # parenthesised join
            item = self._from_item()
            self._expect_punct(")")
            return item
        name = self._expect_identifier("table name")
        alias = self._correlation_name(required=False, what="table")
        return ast.TableRef(name, alias)

    def _table_function_ref(self) -> ast.TableFunctionRef:
        self._expect_punct("(")
        fn_name = self._expect_identifier("table function name")
        self._expect_punct("(")
        args: list[ast.Expression] = []
        if not self._check_punct(")"):
            args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
        self._expect_punct(")")
        self._expect_punct(")")
        alias = self._correlation_name(required=True, what="table function")
        return ast.TableFunctionRef(fn_name, args, alias)

    def _correlation_name(self, required: bool, what: str) -> str | None:
        if self._accept_keyword("AS"):
            return self._expect_identifier("correlation name")
        if self._peek().type is TokenType.IDENTIFIER:
            return self._advance().value
        if required:
            # DB2 v7.1: correlation names for TABLE(...) are mandatory.
            raise self._error(f"a correlation name is mandatory for a {what}")
        return None

    # CREATE -------------------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        if self._accept_soft("USER"):
            return ast.CreateUser(self._expect_identifier("user name"))
        if self._accept_keyword("VIEW"):
            return self._create_view()
        if self._accept_keyword("FUNCTION"):
            return self._create_function()
        if self._accept_keyword("PROCEDURE"):
            return self._create_procedure()
        if self._accept_keyword("WRAPPER"):
            return ast.CreateWrapper(self._expect_identifier("wrapper name"))
        if self._accept_keyword("SERVER"):
            name = self._expect_identifier("server name")
            self._expect_keyword("WRAPPER")
            wrapper = self._expect_identifier("wrapper name")
            return ast.CreateServer(name, wrapper)
        if self._accept_keyword("NICKNAME"):
            name = self._expect_identifier("nickname")
            self._expect_keyword("FOR")
            server = self._expect_identifier("server name")
            self._expect_punct(".")
            remote = self._expect_identifier("remote table name")
            return ast.CreateNickname(name, server, remote)
        raise self._error(f"unsupported CREATE target: {self._peek()}")

    def _create_view(self) -> ast.CreateView:
        name = self._expect_identifier("view name")
        columns: list[str] | None = None
        if self._check_punct("("):
            self._advance()
            columns = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_punct(")")
        self._expect_keyword("AS")
        return ast.CreateView(name, columns, self._select())

    def _create_table(self) -> ast.CreateTable:
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns: list[ast.ColumnSpec] = []
        primary_key: list[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                primary_key.append(self._expect_identifier("column name"))
                while self._accept_punct(","):
                    primary_key.append(self._expect_identifier("column name"))
                self._expect_punct(")")
            else:
                columns.append(self._column_spec())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if not columns:
            raise self._error("a table needs at least one column")
        return ast.CreateTable(name, columns, primary_key)

    def _column_spec(self) -> ast.ColumnSpec:
        name = self._expect_identifier("column name")
        col_type = self._type()
        not_null = False
        primary_key = False
        default: ast.Expression | None = None
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._accept_keyword("DEFAULT"):
                default = self._expression()
            else:
                break
        return ast.ColumnSpec(name, col_type, not_null, primary_key, default)

    def _type(self) -> SqlType:
        token = self._peek()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise self._error(f"expected a type name, found {token}")
        self._advance()
        params: list[int] = []
        if self._accept_punct("("):
            while True:
                params.append(self._integer("expected numeric type parameter"))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return parse_type(token.value, *params)

    def _create_function(self) -> ast.Statement:
        name = self._expect_identifier("function name")
        params = self._param_list(with_modes=False)
        self._expect_keyword("RETURNS")
        self._expect_keyword("TABLE")
        self._expect_punct("(")
        returns: list[tuple[str, SqlType]] = []
        while True:
            col = self._expect_identifier("result column name")
            returns.append((col, self._type()))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

        language = "SQL"
        external_name: str | None = None
        fenced = True
        deterministic = False
        while True:
            if self._accept_soft("DETERMINISTIC"):
                deterministic = True
                continue
            nxt = self._peek(1)
            if (
                self._check_keyword("NOT")
                and nxt.type is TokenType.IDENTIFIER
                and nxt.value.upper() == "DETERMINISTIC"
            ):
                self._advance()
                self._advance()
                deterministic = False
                continue
            if self._accept_keyword("LANGUAGE"):
                token = self._peek()
                if token.matches(TokenType.KEYWORD, "SQL"):
                    self._advance()
                    language = "SQL"
                else:
                    language = self._expect_identifier("language name").upper()
            elif self._accept_keyword("EXTERNAL"):
                self._expect_soft("NAME")
                token = self._peek()
                if token.type is not TokenType.STRING:
                    raise self._error("expected string after EXTERNAL NAME")
                self._advance()
                external_name = token.value
            elif self._accept_keyword("FENCED"):
                fenced = True
            elif self._accept_keyword("UNFENCED"):
                fenced = False
            else:
                break

        if external_name is not None:
            return ast.CreateExternalFunction(
                name=name,
                params=params,
                returns_table=returns,
                external_name=external_name,
                language=language if language != "SQL" else "JAVA",
                fenced=fenced,
                deterministic=deterministic,
            )

        if self._check_keyword("BEGIN"):
            # The DB2 v7.1 restriction the paper leans on: a LANGUAGE SQL
            # function body is a single RETURN statement, never a block.
            raise OneStatementError(
                "a LANGUAGE SQL function body may contain only one SQL "
                "statement (RETURN <select>); BEGIN ... END blocks are only "
                "available in stored procedures"
            )
        self._expect_keyword("RETURN")
        body = self._select()
        if self._check_punct(";") and self._peek(1).type is not TokenType.EOF:
            raise OneStatementError(
                "a LANGUAGE SQL function body may contain only one SQL statement"
            )
        return ast.CreateSqlFunction(name, params, returns, body, deterministic)

    def _param_list(self, with_modes: bool) -> list[ast.ParamSpec]:
        self._expect_punct("(")
        params: list[ast.ParamSpec] = []
        if not self._check_punct(")"):
            while True:
                mode = "IN"
                if with_modes:
                    mode_token = self._accept_keyword("IN", "OUT", "INOUT")
                    if mode_token is not None:
                        mode = mode_token.value
                pname = self._expect_identifier("parameter name")
                ptype = self._type()
                params.append(ast.ParamSpec(pname, ptype, mode))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return params

    # CREATE PROCEDURE / PSM --------------------------------------------------------

    def _create_procedure(self) -> ast.CreateProcedure:
        name = self._expect_identifier("procedure name")
        params = self._param_list(with_modes=True)
        self._expect_keyword("LANGUAGE")
        self._expect_keyword("SQL")
        self._expect_keyword("BEGIN")
        body = self._psm_statements(terminators=("END",))
        self._expect_keyword("END")
        return ast.CreateProcedure(name, params, body)

    def _psm_statements(self, terminators: tuple[str, ...]) -> list[ast.PsmStatement]:
        statements: list[ast.PsmStatement] = []
        while not self._check_keyword(*terminators):
            statements.append(self._psm_statement())
            if not self._accept_punct(";"):
                break
        return statements

    def _psm_statement(self) -> ast.PsmStatement:
        if self._accept_keyword("DECLARE"):
            name = self._expect_identifier("variable name")
            var_type = self._type()
            default: ast.Expression | None = None
            if self._accept_keyword("DEFAULT"):
                default = self._expression()
            return ast.PsmDeclare(name, var_type, default)
        if self._accept_keyword("SET"):
            target = self._expect_identifier("variable name")
            if not self._accept_operator("="):
                raise self._error("expected '=' in SET statement")
            return ast.PsmSet(target, self._expression())
        if self._accept_keyword("IF"):
            return self._psm_if()
        if self._accept_keyword("WHILE"):
            condition = self._expression()
            self._expect_keyword("DO")
            body = self._psm_statements(terminators=("END",))
            self._expect_keyword("END")
            self._expect_keyword("WHILE")
            return ast.PsmWhile(condition, body)
        if self._accept_keyword("CALL"):
            name = self._expect_identifier("procedure name")
            args = self._call_args()
            return ast.PsmCall(name, args)
        raise self._error(f"unsupported statement in procedure body: {self._peek()}")

    def _psm_if(self) -> ast.PsmIf:
        branches: list[tuple[ast.Expression, list[ast.PsmStatement]]] = []
        condition = self._expression()
        self._expect_keyword("THEN")
        body = self._psm_statements(terminators=("ELSEIF", "ELSE", "END"))
        branches.append((condition, body))
        while self._accept_keyword("ELSEIF"):
            condition = self._expression()
            self._expect_keyword("THEN")
            body = self._psm_statements(terminators=("ELSEIF", "ELSE", "END"))
            branches.append((condition, body))
        else_body: list[ast.PsmStatement] = []
        if self._accept_keyword("ELSE"):
            else_body = self._psm_statements(terminators=("END",))
        self._expect_keyword("END")
        self._expect_keyword("IF")
        return ast.PsmIf(branches, else_body)

    # other statements ---------------------------------------------------------------

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._expect_identifier("table name"))
        if self._accept_keyword("FUNCTION"):
            return ast.DropFunction(self._expect_identifier("function name"))
        if self._accept_keyword("VIEW"):
            return ast.DropView(self._expect_identifier("view name"))
        raise self._error(f"unsupported DROP target: {self._peek()}")

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns: list[str] | None = None
        if self._check_punct("("):
            self._advance()
            columns = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_punct(")")
        if self._accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self._accept_punct(","):
                rows.append(self._value_row())
            return ast.Insert(table, columns, rows=rows)
        if self._check_keyword("SELECT"):
            return ast.Insert(table, columns, source=self._select())
        raise self._error("expected VALUES or SELECT in INSERT")

    def _value_row(self) -> list[ast.Expression]:
        self._expect_punct("(")
        row = [self._expression()]
        while self._accept_punct(","):
            row.append(self._expression())
        self._expect_punct(")")
        return row

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self._expect_identifier("column name")
            if not self._accept_operator("="):
                raise self._error("expected '=' in UPDATE assignment")
            assignments.append((column, self._expression()))
            if not self._accept_punct(","):
                break
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Update(table, assignments, where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _call(self) -> ast.Call:
        self._expect_keyword("CALL")
        name = self._expect_identifier("procedure name")
        return ast.Call(name, self._call_args())

    def _call_args(self) -> list[ast.Expression]:
        self._expect_punct("(")
        args: list[ast.Expression] = []
        if not self._check_punct(")"):
            args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
        self._expect_punct(")")
        return args

    # -- expressions --------------------------------------------------------------------
    #
    # Precedence climbing over ``_INFIX``.  ``_expression(level)`` parses an
    # operand, then folds in every infix operator that binds at ``level``
    # or tighter and no looser than ``ceiling``.  Binary operators are
    # left-associative.  A predicate (comparison, IS, [NOT] IN/LIKE/BETWEEN)
    # takes no further predicate, and neither does a prefix NOT, so after
    # either the ceiling drops to AND: ``a = b = c`` stops before the
    # second ``=``, which the caller then reports as unexpected.

    def _expression(self, level: int = _OR) -> ast.Expression:
        tokens = self.tokens
        token = tokens[self.pos]
        if token.type is _KEYWORD and token.value == "NOT" and level <= _NOT:
            self.pos += 1
            left: ast.Expression = ast.UnaryOp("NOT", self._expression(_NOT))
            ceiling = _AND
        elif token.type is _OPERATOR and token.value in ("-", "+"):
            self.pos += 1
            left = self._expression(_UNARY)
            if token.value == "-":
                left = ast.UnaryOp("-", left)
            ceiling = _MULTIPLICATIVE
        else:
            left = self._primary()
            ceiling = _MULTIPLICATIVE
        while True:
            token = tokens[self.pos]
            if token.type is not _KEYWORD and token.type is not _OPERATOR:
                return left
            op_level = _INFIX.get(token.value)
            if op_level is None or not level <= op_level <= ceiling:
                return left
            if op_level != _PREDICATE:
                self.pos += 1
                left = ast.BinaryOp(token.value, left, self._expression(op_level + 1))
                ceiling = op_level
                continue
            negated = token.value == "NOT"
            if negated:
                token = tokens[self.pos + 1]
                if token.type is not _KEYWORD or token.value not in _NEGATABLE:
                    return left
                self.pos += 1
            self.pos += 1
            left = self._predicate(left, token, negated)
            ceiling = _AND

    def _predicate(
        self, left: ast.Expression, token: Token, negated: bool
    ) -> ast.Expression:
        """The rest of a predicate whose operator ``token`` was just consumed."""
        op = token.value
        if token.type is _OPERATOR:  # comparison
            return ast.BinaryOp(
                "<>" if op == "!=" else op, left, self._expression(_ADDITIVE)
            )
        if op == "IS":
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        if op == "IN":
            self._expect_punct("(")
            if self._check_keyword("SELECT"):
                subquery = self._select()
                self._expect_punct(")")
                return ast.InSubquery(left, subquery, negated)
            items = [self._expression()]
            while self._accept_punct(","):
                items.append(self._expression())
            self._expect_punct(")")
            return ast.InList(left, items, negated)
        if op == "LIKE":
            return ast.Like(left, self._expression(_ADDITIVE), negated)
        low = self._expression(_ADDITIVE)  # BETWEEN
        self._expect_keyword("AND")
        return ast.Between(left, low, self._expression(_ADDITIVE), negated)

    def _primary(self) -> ast.Expression:
        token = self.tokens[self.pos]
        kind = token.type
        if kind is TokenType.NUMBER:
            self.pos += 1
            text = token.value
            if "e" in text or "E" in text:
                return ast.Literal(float(text))
            if "." in text:
                # SQL: a literal with a decimal point is an *exact*
                # numeric (DECIMAL), not an approximate DOUBLE.
                return ast.Literal(Decimal(text))
            return ast.Literal(int(text))
        if kind is TokenType.IDENTIFIER:
            return self._identifier_expression()
        if kind is TokenType.STRING:
            self.pos += 1
            return ast.Literal(token.value)
        if kind is TokenType.PARAMETER:
            self.pos += 1
            self._parameters += 1
            return ast.Parameter(self._parameters - 1)
        if kind is _KEYWORD:
            value = token.value
            if value in _KEYWORD_LITERALS:
                self.pos += 1
                return ast.Literal(_KEYWORD_LITERALS[value])
            if value == "CASE":
                return self._case()
            if value == "CAST":
                self.pos += 1
                self._expect_punct("(")
                operand = self._expression()
                self._expect_keyword("AS")
                target = self._type()
                self._expect_punct(")")
                return ast.Cast(operand, target)
            if value == "EXISTS":
                self.pos += 1
                self._expect_punct("(")
                subquery = self._select()
                self._expect_punct(")")
                return ast.Exists(subquery)
        elif kind is _PUNCTUATION and token.value == "(":
            self.pos += 1
            if self._check_keyword("SELECT"):
                subquery = self._select()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expr = self._expression()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token in expression: {token}")

    def _identifier_expression(self) -> ast.Expression:
        name = self._advance().value
        # function call?
        if self._check_punct("("):
            self._advance()
            distinct = self._accept_keyword("DISTINCT") is not None
            args: list[ast.Expression] = []
            if self._check_operator("*"):
                self._advance()
                args.append(ast.Star())
            elif not self._check_punct(")"):
                args.append(self._expression())
                while self._accept_punct(","):
                    args.append(self._expression())
            self._expect_punct(")")
            return ast.FunctionCall(name, args, distinct)
        # qualified reference?
        if self._check_punct("."):
            self._advance()
            member = self._expect_identifier("column name")
            return ast.ColumnRef(name, member)
        return ast.ColumnRef(None, name)

    def _case(self) -> ast.Case:
        self._expect_keyword("CASE")
        operand: ast.Expression | None = None
        if not self._check_keyword("WHEN"):
            operand = self._expression()
        whens: list[ast.CaseWhen] = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            whens.append(ast.CaseWhen(condition, self._expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        else_result: ast.Expression | None = None
        if self._accept_keyword("ELSE"):
            else_result = self._expression()
        self._expect_keyword("END")
        return ast.Case(operand, whens, else_result)


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one SQL statement."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ';'-separated script."""
    return Parser(text).parse_script()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression."""
    return Parser(text).parse_expression()
