"""Message and room types shared by every group-communication model."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

from repro.crypto.hashing import hash_obj
from repro.errors import GroupCommError

__all__ = ["Audience", "Message", "Room"]


class Audience:
    """Access levels for a post (Persona/Lockr-style, §3.2)."""

    PUBLIC = "public"
    FRIENDS = "friends"
    CLOSE_FRIENDS = "close_friends"

    ALL = (PUBLIC, FRIENDS, CLOSE_FRIENDS)


@dataclass(frozen=True)
class Message:
    """One post: author, room, body, and where it was created.

    ``body`` may be ciphertext (see :mod:`repro.groupcomm.encryption`);
    ``encrypted`` records that.  ``audience`` is the author-defined access
    level (§3.2: PrPl/Persona let users define who may read what).
    ``msg_id`` is content-derived so replication layers can deduplicate.
    It is computed on first read and cached on the instance, so no field
    (``body`` included) may be mutated after construction; build a new
    ``Message`` instead.  Nothing enforces this yet; a copying message
    boundary is the planned enforcement (ROADMAP item 5).
    """

    author: str
    room: str
    body: Any
    sent_at: float
    encrypted: bool = False
    seq: int = 0
    audience: str = Audience.FRIENDS

    @cached_property
    def msg_id(self) -> str:
        return hash_obj(
            {
                "author": self.author,
                "room": self.room,
                "body": self.body,
                "sent_at": self.sent_at,
                "seq": self.seq,
                "audience": self.audience,
            }
        )

    @property
    def metadata(self) -> Dict[str, Any]:
        """What an observer learns without reading the body: the §3.2
        metadata-leak surface (who talked, where, when)."""
        return {"author": self.author, "room": self.room, "sent_at": self.sent_at}


@dataclass
class Room:
    """A conversation context with a membership list."""

    room_id: str
    members: set = field(default_factory=set)
    public: bool = False

    def require_member(self, user: str) -> None:
        if not self.public and user not in self.members:
            raise GroupCommError(f"{user!r} is not a member of {self.room_id!r}")

    def add_member(self, user: str) -> None:
        self.members.add(user)

    def remove_member(self, user: str) -> None:
        self.members.discard(user)
