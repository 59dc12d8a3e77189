"""Recursive-descent parser producing AST nodes from token streams."""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Token, TokenType, first_token, tokenize


#: Keywords that may still be used as table/column identifiers.
SOFT_KEYWORDS = frozenset({"structure", "main_pages", "statistics", "key"})


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement (an optional trailing ';' is allowed)."""
    parser = _Parser(tokenize(text))
    statement = parser.statement()
    parser.accept_punct(";")
    parser.expect_eof()
    return statement


def statement_kind(text: str) -> str | None:
    """The keyword :func:`parse_statement` dispatches ``text`` on
    (``"select"``, ``"insert"``, ...), or None when it does not begin
    with one; read from the first token, so a long text costs no more
    than a short one.  Raises :class:`LexerError` where that token does
    not lex."""
    token = first_token(text)
    return token.value if token.type is TokenType.KEYWORD else None


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ';'-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    statements: list[ast.Statement] = []
    while not parser.at_eof():
        statements.append(parser.statement())
        if not parser.accept_punct(";"):
            break
    parser.expect_eof()
    return statements


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        # Literal tokens consumed so far: the next one's ordinal in the
        # statement's literal vector (lexer.parameterize).
        self._slot = 0
        self._pinned: list[int] = []

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def at_eof(self) -> bool:
        return self.current.type is TokenType.EOF

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(f"{message} (near {token.value!r} at "
                          f"offset {token.position})")

    def accept_keyword(self, *words: str) -> Token | None:
        if self.current.is_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise self.error(f"expected {'/'.join(w.upper() for w in words)}")
        return token

    def accept_punct(self, char: str) -> bool:
        if self.current.type is TokenType.PUNCT and self.current.value == char:
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise self.error(f"expected {char!r}")

    def accept_operator(self, *ops: str) -> Token | None:
        if (self.current.type is TokenType.OPERATOR
                and self.current.value in ops):
            return self.advance()
        return None

    def expect_identifier(self, what: str = "identifier") -> str:
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        if (self.current.type is TokenType.KEYWORD
                and self.current.value in SOFT_KEYWORDS):
            return self.advance().value
        raise self.error(f"expected {what}")

    def take_slot(self) -> int:
        """The ordinal of the literal token being consumed."""
        self._slot += 1
        return self._slot - 1

    def expect_integer(self, what: str = "integer") -> int:
        """An integer that becomes structure, not a Literal node."""
        if self.current.type is TokenType.INTEGER:
            self._pinned.append(self.take_slot())
            return self.advance().value
        raise self.error(f"expected {what}")

    def expect_string(self, what: str = "string literal") -> str:
        if self.current.type is TokenType.STRING:
            self._pinned.append(self.take_slot())
            return self.advance().value
        raise self.error(f"expected {what}")

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    def reject_subquery(self) -> None:
        """After a '(': a SELECT there would be a subquery."""
        if self.current.is_keyword("select"):
            raise self.error("subqueries are not supported")

    # -- statements ----------------------------------------------------------

    def statement(self) -> ast.Statement:
        token = self.current
        if token.is_keyword("select"):
            return self.select_statement()
        if token.is_keyword("insert"):
            return self.insert_statement()
        if token.is_keyword("update"):
            return self.update_statement()
        if token.is_keyword("delete"):
            return self.delete_statement()
        if token.is_keyword("create"):
            return self.create_statement()
        if token.is_keyword("drop"):
            return self.drop_statement()
        if token.is_keyword("modify"):
            return self.modify_statement()
        if token.is_keyword("explain"):
            self.advance()
            inner = self.statement()
            if not isinstance(inner, ast.SelectStatement):
                raise self.error("EXPLAIN supports only SELECT statements")
            return ast.ExplainStatement(inner)
        if token.is_keyword("begin"):
            self.advance()
            return ast.BeginStatement()
        if token.is_keyword("commit"):
            self.advance()
            return ast.CommitStatement()
        if token.is_keyword("rollback"):
            self.advance()
            return ast.RollbackStatement()
        raise self.error("expected a statement")

    # -- SELECT ---------------------------------------------------------------

    def select_statement(self) -> ast.SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct") is not None
        select_items = [self.select_item()]
        while self.accept_punct(","):
            select_items.append(self.select_item())

        from_table: ast.TableRef | None = None
        joins: list[ast.Join] = []
        if self.accept_keyword("from"):
            from_table = self.table_ref()
            while True:
                if self.accept_punct(","):
                    joins.append(ast.Join(self.table_ref(), None))
                    continue
                if self.accept_keyword("cross"):
                    self.expect_keyword("join")
                    joins.append(ast.Join(self.table_ref(), None))
                    continue
                if self.current.is_keyword("left"):
                    raise self.error("LEFT [OUTER] JOIN is not supported")
                if self.current.is_keyword("join", "inner"):
                    self.accept_keyword("inner")
                    self.expect_keyword("join")
                    right = self.table_ref()
                    self.expect_keyword("on")
                    joins.append(ast.Join(right, self.expression()))
                    continue
                break

        where = self.expression() if self.accept_keyword("where") else None
        group_by: list[ast.Expression] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.expression())
            while self.accept_punct(","):
                group_by.append(self.expression())
        having = self.expression() if self.accept_keyword("having") else None
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.order_item())
            while self.accept_punct(","):
                order_by.append(self.order_item())
        limit = offset = None
        if self.accept_keyword("limit"):
            limit = self.expect_integer("LIMIT count")
            if self.accept_keyword("offset"):
                offset = self.expect_integer("OFFSET count")
        return ast.SelectStatement(
            select_items=tuple(select_items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            pinned_slots=tuple(self._pinned),
        )

    def select_item(self) -> ast.SelectItem:
        expression = self.expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier("alias")
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expression, alias)

    def table_ref(self) -> ast.TableRef:
        name = self.expect_identifier("table name")
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier("alias")
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def order_item(self) -> ast.OrderItem:
        expression = self.expression()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expression, descending)

    # -- DML --------------------------------------------------------------------

    def insert_statement(self) -> ast.InsertStatement:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_identifier("table name")
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_identifier("column name"))
            while self.accept_punct(","):
                columns.append(self.expect_identifier("column name"))
            self.expect_punct(")")
        self.expect_keyword("values")
        rows = [self.value_row()]
        while self.accept_punct(","):
            rows.append(self.value_row())
        return ast.InsertStatement(table, tuple(columns), tuple(rows),
                                   tuple(self._pinned))

    def value_row(self) -> tuple[ast.Expression, ...]:
        self.expect_punct("(")
        values = [self.expression()]
        while self.accept_punct(","):
            values.append(self.expression())
        self.expect_punct(")")
        return tuple(values)

    def update_statement(self) -> ast.UpdateStatement:
        self.expect_keyword("update")
        table = self.expect_identifier("table name")
        self.expect_keyword("set")
        assignments = [self.assignment()]
        while self.accept_punct(","):
            assignments.append(self.assignment())
        where = self.expression() if self.accept_keyword("where") else None
        return ast.UpdateStatement(table, tuple(assignments), where,
                                   tuple(self._pinned))

    def assignment(self) -> tuple[str, ast.Expression]:
        column = self.expect_identifier("column name")
        if self.accept_operator("=") is None:
            raise self.error("expected '=' in assignment")
        return column, self.expression()

    def delete_statement(self) -> ast.DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_identifier("table name")
        where = self.expression() if self.accept_keyword("where") else None
        return ast.DeleteStatement(table, where, tuple(self._pinned))

    # -- DDL ----------------------------------------------------------------------

    def create_statement(self) -> ast.Statement:
        self.expect_keyword("create")
        if self.accept_keyword("table"):
            return self.create_table_body()
        unique = self.accept_keyword("unique") is not None
        virtual = self.accept_keyword("virtual") is not None
        if self.accept_keyword("index"):
            return self.create_index_body(unique, virtual)
        if unique or virtual:
            raise self.error("expected INDEX")
        if self.accept_keyword("statistics"):
            return self.create_statistics_body()
        if self.accept_keyword("trigger"):
            return self.create_trigger_body()
        raise self.error("expected TABLE, INDEX, STATISTICS or TRIGGER")

    def create_table_body(self) -> ast.CreateTableStatement:
        table = self.expect_identifier("table name")
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self.accept_keyword("primary"):
                self.expect_keyword("key")
                self.expect_punct("(")
                key = [self.expect_identifier("column name")]
                while self.accept_punct(","):
                    key.append(self.expect_identifier("column name"))
                self.expect_punct(")")
                primary_key = tuple(key)
            else:
                columns.append(self.column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        structure = None
        main_pages = None
        if self.accept_keyword("with"):
            while True:
                if self.accept_keyword("structure"):
                    if self.accept_operator("=") is None:
                        raise self.error("expected '=' after STRUCTURE")
                    structure = self.expect_identifier("structure name")
                elif self.accept_keyword("main_pages"):
                    if self.accept_operator("=") is None:
                        raise self.error("expected '=' after MAIN_PAGES")
                    main_pages = self.expect_integer("page count")
                else:
                    raise self.error("expected STRUCTURE or MAIN_PAGES")
                if not self.accept_punct(","):
                    break
        return ast.CreateTableStatement(
            table, tuple(columns), primary_key, structure, main_pages
        )

    _TYPE_NAMES = frozenset({"int", "integer", "bigint", "float", "double",
                             "real", "varchar", "text", "bool", "boolean"})

    def column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        if self.current.type is not TokenType.IDENT \
                or self.current.value not in self._TYPE_NAMES:
            raise self.error("expected a type name")
        type_name = self.advance().value
        length = 0
        if self.accept_punct("("):
            length = self.expect_integer("length")
            self.expect_punct(")")
        nullable = True
        if self.accept_keyword("not"):
            self.expect_keyword("null")
            nullable = False
        elif self.accept_keyword("null"):
            nullable = True
        return ast.ColumnDef(name, type_name, length, nullable)

    def create_index_body(self, unique: bool,
                          virtual: bool) -> ast.CreateIndexStatement:
        index = self.expect_identifier("index name")
        self.expect_keyword("on")
        table = self.expect_identifier("table name")
        self.expect_punct("(")
        columns = [self.expect_identifier("column name")]
        while self.accept_punct(","):
            columns.append(self.expect_identifier("column name"))
        self.expect_punct(")")
        return ast.CreateIndexStatement(index, table, tuple(columns),
                                        unique, virtual)

    def create_statistics_body(self) -> ast.CreateStatisticsStatement:
        self.expect_keyword("on")
        table = self.expect_identifier("table name")
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_identifier("column name"))
            while self.accept_punct(","):
                columns.append(self.expect_identifier("column name"))
            self.expect_punct(")")
        return ast.CreateStatisticsStatement(table, tuple(columns))

    def create_trigger_body(self) -> ast.CreateTriggerStatement:
        name = self.expect_identifier("trigger name")
        self.expect_keyword("on")
        table = self.expect_identifier("table name")
        self.expect_keyword("when")
        condition = self.expression()
        self.expect_keyword("raise")
        message = self.expect_string("alert message")
        return ast.CreateTriggerStatement(name, table, condition, message)

    def drop_statement(self) -> ast.Statement:
        self.expect_keyword("drop")
        if self.accept_keyword("table"):
            return ast.DropTableStatement(self.expect_identifier("table name"))
        if self.accept_keyword("index"):
            return ast.DropIndexStatement(self.expect_identifier("index name"))
        if self.accept_keyword("trigger"):
            return ast.DropTriggerStatement(
                self.expect_identifier("trigger name"))
        raise self.error("expected TABLE, INDEX or TRIGGER")

    def modify_statement(self) -> ast.ModifyStatement:
        self.expect_keyword("modify")
        table = self.expect_identifier("table name")
        self.expect_keyword("to")
        structure = self.expect_identifier("structure name")
        main_pages = None
        if self.accept_keyword("with"):
            self.expect_keyword("main_pages")
            if self.accept_operator("=") is None:
                raise self.error("expected '=' after MAIN_PAGES")
            main_pages = self.expect_integer("page count")
        return ast.ModifyStatement(table, structure, main_pages)

    # -- expressions -----------------------------------------------------------

    def expression(self) -> ast.Expression:
        return self.or_expression()

    def or_expression(self) -> ast.Expression:
        left = self.and_expression()
        while self.accept_keyword("or"):
            left = ast.BinaryOp("or", left, self.and_expression())
        return left

    def and_expression(self) -> ast.Expression:
        left = self.not_expression()
        while self.accept_keyword("and"):
            left = ast.BinaryOp("and", left, self.not_expression())
        return left

    def not_expression(self) -> ast.Expression:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self.not_expression())
        return self.comparison()

    _COMPARISONS = ("=", "!=", "<>", "<=", ">=", "<", ">")

    def comparison(self) -> ast.Expression:
        left = self.additive()
        token = self.accept_operator(*self._COMPARISONS)
        if token is not None:
            op = "!=" if token.value == "<>" else token.value
            return ast.BinaryOp(op, left, self.additive())
        if self.accept_keyword("is"):
            negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return ast.IsNull(left, negated)
        negated = False
        if self.current.is_keyword("not"):
            follower = self._tokens[self._pos + 1]
            if follower.is_keyword("in", "between", "like"):
                self.advance()
                negated = True
        if self.accept_keyword("in"):
            self.expect_punct("(")
            self.reject_subquery()
            items = [self.expression()]
            while self.accept_punct(","):
                items.append(self.expression())
            self.expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return ast.Between(left, low, high, negated)
        if self.accept_keyword("like"):
            pattern = self.additive()
            node: ast.Expression = ast.BinaryOp("like", left, pattern)
            return ast.UnaryOp("not", node) if negated else node
        if negated:
            raise self.error("dangling NOT")
        return left

    def additive(self) -> ast.Expression:
        left = self.multiplicative()
        while True:
            token = self.accept_operator("+", "-")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self.multiplicative())

    def multiplicative(self) -> ast.Expression:
        left = self.unary()
        while True:
            token = self.accept_operator("*", "/", "%")
            if token is None:
                return left
            left = ast.BinaryOp(token.value, left, self.unary())

    def unary(self) -> ast.Expression:
        if self.accept_operator("-"):
            operand = self.unary()
            # Constant-fold negative numeric literals so '-1' round-trips.
            if isinstance(operand, ast.Literal) \
                    and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                if operand.slot is not None:
                    self._pinned.append(operand.slot)
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.accept_operator("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> ast.Expression:
        token = self.current
        if (token.type is TokenType.INTEGER or token.type is TokenType.FLOAT
                or token.type is TokenType.STRING):
            return ast.Literal(self.advance().value, self.take_slot())
        if token.is_keyword("null"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Literal(False)
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return ast.Star()
        if token.type is TokenType.PUNCT and token.value == "(":
            self.advance()
            self.reject_subquery()
            inner = self.expression()
            self.expect_punct(")")
            return inner
        if token.type is TokenType.IDENT or (
                token.type is TokenType.KEYWORD
                and token.value in SOFT_KEYWORDS):
            return self._identifier_expression()
        raise self.error("expected an expression")

    def _identifier_expression(self) -> ast.Expression:
        name = self.advance().value
        # function call
        if self.current.type is TokenType.PUNCT and self.current.value == "(":
            self.advance()
            distinct = self.accept_keyword("distinct") is not None
            args: list[ast.Expression] = []
            if not (self.current.type is TokenType.PUNCT
                    and self.current.value == ")"):
                args.append(self.expression())
                while self.accept_punct(","):
                    args.append(self.expression())
            self.expect_punct(")")
            return ast.FunctionCall(name, tuple(args), distinct)
        # qualified reference: t.col or t.*
        if self.current.type is TokenType.PUNCT and self.current.value == ".":
            self.advance()
            if self.current.type is TokenType.OPERATOR \
                    and self.current.value == "*":
                self.advance()
                return ast.Star(table=name)
            column = self.expect_identifier("column name")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)
