"""Shared persistence machinery: errors, f32 quantization, the reference check."""

import struct
from functools import wraps

from .. import model
from ..model import Scheme, SchemeError


class PersistError(SchemeError):
    """Base class for load/save failures."""


class BadMagicError(PersistError):
    pass


class TruncatedError(PersistError):
    pass


class VersionError(PersistError):
    pass


class CorruptError(PersistError):
    """Bytes that do not decode: malformed UTF-8 or an unknown enum code."""


class DanglingIndexError(PersistError):
    pass


class ParseError(PersistError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def q32(v: float) -> float:
    """Quantize to the nearest 32-bit float, the on-disk precision."""
    try:
        return struct.unpack("<f", struct.pack("<f", v))[0]
    except OverflowError:
        raise PersistError(f"{v!r} is outside the 32-bit float range") from None


def check_references(scheme: Scheme) -> None:
    """Raise DanglingIndexError at the first stored id that does not resolve."""
    for name, oid, field, target, rid in model.dangling_refs(scheme):
        raise DanglingIndexError(f"{model.SUBJECTS[name]}:{oid} {field} references "
                                 f"missing {target[:-1]} {rid}")


def saver(save):
    """A saver that raises PersistError where a field that holds a record, a
    tuple or a list holds None; the codecs check the type of single values."""
    @wraps(save)
    def checked(scheme: Scheme):
        try:
            return save(scheme)
        except (AttributeError, KeyError, TypeError) as e:
            if "NoneType" not in str(e) and e.args != (None,):
                raise
            raise PersistError(f"a field holds None where a value is required ({e})") from e
    return checked
