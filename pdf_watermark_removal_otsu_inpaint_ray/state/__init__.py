"""Keyed state actors of the streaming engines."""


class Resettable:
    """Mixin for actors that a warm pool (``pipelines/streaming.py``
    ``_leased_actors``) hands from one call to the next.  ``reset`` is
    total: it drops every instance attribute and re-runs ``__init__`` with
    the new call's arguments, so a reset actor holds exactly what a fresh
    one would — no field can be forgotten by a hand-written clear."""

    def reset(self, *args, **kwargs) -> None:
        self.__dict__.clear()
        self.__init__(*args, **kwargs)
