from .flagship import run_flagship

__all__ = ["run_flagship"]
