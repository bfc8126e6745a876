"""Words, cyclic words and automorphisms of a finite-rank free group.

Letters are nonzero integers: ``+i`` is the i-th generator, ``-i`` its
inverse (1-based, ``i <= rank``).  The string form uses ``a..z`` for
generators and ``A..Z`` for inverses, so ``"abA"`` is a b a^-1.  Ranks
beyond 26 fall back to signed-integer lists.

All values are immutable after construction.  The rank lives on a
shared FreeGroup context object; mixing contexts of different rank is a
hard error.
"""

from __future__ import annotations

from collections import deque


class RankMismatchError(ValueError):
    pass


def letter_key(letter):
    """Sort key realizing the order a < a^-1 < b < b^-1 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


_LOWER = "abcdefghijklmnopqrstuvwxyz"


def letter_str(letter):
    i = abs(letter)
    if i <= 26:
        ch = _LOWER[i - 1]
        return ch if letter > 0 else ch.upper()
    return str(letter)


def parse_letters(text):
    """Parse a string like ``"abA"`` into a list of signed letters."""
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        lo = ch.lower()
        idx = _LOWER.find(lo)
        if idx < 0:
            raise ValueError(f"unrecognized letter {ch!r}")
        letters.append(idx + 1 if ch.islower() else -(idx + 1))
    return letters


def free_reduce(letters):
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_reduce(letters):
    """Cyclically reduce an already freely reduced sequence.

    Returns (core, conjugator) with original = conjugator * core * conjugator^-1.
    """
    seq = deque(letters)
    pre = []
    while len(seq) >= 2 and seq[0] == -seq[-1]:
        pre.append(seq[0])
        seq.popleft()
        seq.pop()
    return list(seq), pre


class FreeGroup:
    """Context object carrying the rank; words hold a reference to it."""

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and self.rank == other.rank

    def __hash__(self):
        return hash(("FreeGroup", self.rank))

    def __repr__(self):
        return f"FreeGroup({self.rank})"

    def check_letter(self, letter):
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} out of range for rank {self.rank}")

    def word(self, letters):
        """Build a (reduced) Word from a letter iterable or a string."""
        if isinstance(letters, str):
            letters = parse_letters(letters)
        return Word(self, letters)

    def identity(self):
        return Word(self, [])

    def generator(self, i):
        return Word(self, [i])

    def generators(self):
        return [Word(self, [i]) for i in range(1, self.rank + 1)]

    def all_letters(self):
        return [s * i for i in range(1, self.rank + 1) for s in (1, -1)]


def _same_group(a, b):
    if a.group != b.group:
        raise RankMismatchError(f"mixing ranks {a.group.rank} and {b.group.rank}")


class Word:
    """A freely reduced word.  Construction reduces, so reduce is idempotent."""

    __slots__ = ("group", "letters")

    def __init__(self, group, letters):
        for x in letters:
            group.check_letter(x)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "letters", tuple(free_reduce(list(letters))))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self.group, self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.group == other.group
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.group.rank, self.letters))

    def __mul__(self, other):
        _same_group(self, other)
        return Word(self.group, list(self.letters) + list(other.letters))

    def inverse(self):
        return Word(self.group, [-x for x in reversed(self.letters)])

    def __pow__(self, n):
        if n == 0:
            return self.group.identity()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def is_identity(self):
        return not self.letters

    def __str__(self):
        return "".join(letter_str(x) for x in self.letters) or "1"

    def __repr__(self):
        return f"Word({self})"

    def cyclic(self):
        return CyclicWord(self.group, self.letters)


def least_rotation(seq, keys=None):
    """The lexicographically least rotation of seq, as a tuple.

    Rotations compare by ``keys`` (a sequence parallel to seq; default
    seq itself); ties go to the first such rotation.
    """
    seq = tuple(seq)
    keys = seq if keys is None else tuple(keys)
    r = min(range(len(seq)), key=lambda r: keys[r:] + keys[:r], default=0)
    return seq[r:] + seq[:r]


class CyclicWord:
    """A conjugacy class: cyclically reduced, stored as the least rotation.

    Inversion is NOT quotiented; the classes of g and g^-1 are distinct.
    """

    __slots__ = ("group", "letters")

    def __init__(self, group, letters):
        for x in letters:
            group.check_letter(x)
        core, _ = cyclic_reduce(free_reduce(list(letters)))
        object.__setattr__(self, "group", group)
        # 2|x| - (x > 0) orders letters as letter_key does
        object.__setattr__(self, "letters", least_rotation(
            core, [2 * abs(x) - (x > 0) for x in core]))

    def __setattr__(self, *a):
        raise AttributeError("CyclicWord is immutable")

    def __reduce__(self):
        return (CyclicWord, (self.group, self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return (isinstance(other, CyclicWord) and self.group == other.group
                and self.letters == other.letters)

    def __hash__(self):
        return hash(("cyc", self.group.rank, self.letters))

    def is_trivial(self):
        return not self.letters

    def inverse(self):
        return CyclicWord(self.group, [-x for x in reversed(self.letters)])

    def word(self):
        return Word(self.group, self.letters)

    def rotations(self):
        n = len(self.letters)
        return [tuple(self.letters[(r + i) % n] for i in range(n)) for r in range(n)]

    def support(self):
        """Set of generator indices occurring (either sign)."""
        return {abs(x) for x in self.letters}

    def __str__(self):
        return "".join(letter_str(x) for x in self.letters) or "1"

    def __repr__(self):
        return f"CyclicWord({self})"


def reduce_word(group, letters):
    """Raw letters (or a string) -> freely reduced Word."""
    if isinstance(letters, str):
        letters = parse_letters(letters)
    return Word(group, letters)


def cyclic_normal_form(word):
    """Word -> canonical CyclicWord of its conjugacy class."""
    return CyclicWord(word.group, word.letters)


class Automorphism:
    """An automorphism given by generator images.

    Invertibility is certified lazily: ``inverse()`` folds the wedge of
    the images with word-carrying edges (``stallings.express_in_generators``)
    and reads each generator in the folded graph; it raises ValueError
    if the images do not form a basis.
    """

    __slots__ = ("group", "images", "_inverse_cache")

    def __init__(self, group, images):
        images = tuple(images)
        if len(images) != group.rank:
            raise ValueError("need one image per generator")
        for w in images:
            if w.group != group:
                raise RankMismatchError("image in wrong group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_inverse_cache", None)

    def __setattr__(self, *a):
        raise AttributeError("Automorphism is immutable")

    def __reduce__(self):
        return (Automorphism, (self.group, self.images))

    @classmethod
    def identity(cls, group):
        return cls(group, group.generators())

    def apply(self, w):
        """Apply to a Word (or CyclicWord, returning a CyclicWord)."""
        _same_group(self, w)
        letters = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            letters.extend(img if x > 0 else [-y for y in reversed(img)])
        return type(w)(self.group, letters)

    def __call__(self, w):
        return self.apply(w)

    def compose(self, other):
        """self after other: (self.compose(other))(w) == self(other(w))."""
        _same_group(self, other)
        return Automorphism(self.group, [self.apply(im) for im in other.images])

    def __mul__(self, other):
        return self.compose(other)

    def is_identity(self):
        return all(im.letters == (i + 1,) for i, im in enumerate(self.images))

    def inverse(self):
        if self._inverse_cache is None:
            from .stallings import express_in_generators
            n = self.group.rank
            inv = express_in_generators([im.letters for im in self.images],
                                        [(j,) for j in range(1, n + 1)], n)
            object.__setattr__(self, "_inverse_cache", Automorphism(self.group, inv))
        return self._inverse_cache

    def __eq__(self, other):
        return (isinstance(other, Automorphism) and self.group == other.group
                and self.images == other.images)

    def __hash__(self):
        return hash((self.group.rank, self.images))

    def __repr__(self):
        imgs = ", ".join(f"{letter_str(i + 1)}->{im}" for i, im in enumerate(self.images))
        return f"Automorphism({imgs})"
