"""The package's record idiom: an immutable namedtuple whose constructor, with the
checks and coercions of its __new__, is the one way in, ``_replace`` included.  A
caller that has loaded ``dataclasses`` may use its ``replace``, ``fields`` and
``asdict`` on a record as on a frozen dataclass; the package never loads it."""
import sys
from collections import namedtuple


class _DataclassView:
    """A dunder of the frozen dataclass with the record's field names, made on the first
    read while ``dataclasses`` is loaded; otherwise the record has no such attribute."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, record, cls):
        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError(self.name)
        twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        cls.__dataclass_fields__, cls.__dataclass_params__ = (
            twin.__dataclass_fields__, twin.__dataclass_params__)
        return getattr(twin, self.name)


def record(name: str, fields) -> type:
    """The namedtuple base of a record class; subclass it with ``__slots__ = ()``."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))  # _replace builds with it
    base.__dataclass_fields__ = _DataclassView("__dataclass_fields__")
    base.__dataclass_params__ = _DataclassView("__dataclass_params__")
    return base
