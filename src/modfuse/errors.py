"""Config errors, the lower bound most rules state, and a UTF-8 reader."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; ``keys`` are the config
    keys the broken rule reads, in the order their lines are tried."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def at_least(key: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}", key)


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a bad byte is named by its line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8: {e.reason} at byte "
                         f"{e.start}") from None
