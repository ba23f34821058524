"""Plain-text tables and series for the experiment reports."""


class Table:
    """A titled, aligned text table."""

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows = []

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                "row has %d values, table has %d columns"
                % (len(values), len(self.columns))
            )
        self.rows.append([_fmt(v) for v in values])

    def format(self):
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(self.columns)))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def column(self, name):
        """All values of one column (as the formatted strings)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def to_json(self):
        return {"title": self.title, "columns": self.columns,
                "rows": self.rows}

    def __str__(self):
        return self.format()


class Series:
    """A named x->y series (one line of a paper figure)."""

    def __init__(self, name):
        self.name = name
        self.points = []

    def add(self, x, y):
        self.points.append((x, y))

    def ys(self):
        return [y for _, y in self.points]

    def xs(self):
        return [x for x, _ in self.points]

    def to_json(self):
        return {"name": self.name,
                "points": [[x, y] for x, y in self.points]}

    def __repr__(self):
        return "Series(%r, %r)" % (self.name, self.points)


def _fmt(value):
    if isinstance(value, float):
        if value >= 100:
            return "%.0f" % value
        if value >= 1:
            return "%.2f" % value
        return "%.3f" % value
    return str(value)
