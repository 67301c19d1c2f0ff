"""Configuration errors, and the integer lower bound most rules state."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; ``keys`` are the config
    keys the broken rule reads, in the order their lines are tried."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def at_least(key: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}", key)
