"""Compact binary parameter-set format (.astsb) and the line-oriented text
format (.asts); both carry parameters only and round-trip losslessly."""

from .common import (
    BadMagicError,
    CorruptError,
    DanglingIndexError,
    ParseError,
    PersistError,
    TruncatedError,
    VersionError,
)
from .binary import load_binary, save_binary
from .text import load_text, save_text

__all__ = [
    "PersistError", "BadMagicError", "TruncatedError", "VersionError",
    "CorruptError", "DanglingIndexError", "ParseError",
    "save_binary", "load_binary", "save_text", "load_text",
]
