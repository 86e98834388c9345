"""Common exception base for user-facing input errors, and the input decode.

Every error raised for bad input data (as opposed to bugs) derives from
:class:`EvalCardsError` so callers, the CLI in particular, can map the
whole family to a single "user input" exit status. Every input file
becomes text through :func:`decode_utf8`.
"""


class EvalCardsError(Exception):
    """Base class for all input-validation errors raised by this package."""


def decode_utf8(data: bytes, error: type[EvalCardsError] = EvalCardsError) -> str:
    """The text of an input file's bytes. Bytes that are not UTF-8 raise
    ``error`` with ``byte N: not valid UTF-8``, N being the 0-based offset
    of the first bad byte; the caller names the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"byte {exc.start}: not valid UTF-8") from None
