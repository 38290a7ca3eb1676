(** Deterministic pseudo-random numbers for workload generation.

    Benchmarks and tests need reproducible inputs; this is a small, fast,
    splittable linear congruential generator so results do not depend on
    OCaml's [Random] state or its version-to-version changes. *)

type t

val create : int -> t
(** [create seed] makes a generator. Equal seeds give equal streams. *)

val split : t -> t
(** A generator statistically independent of the parent's future output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val uniform : t -> float
(** Draw from [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val fill : t -> float array -> lo:float -> hi:float -> unit
(** [fill t a ~lo ~hi] sets every element of [a], first to last, to a
    draw from [lo, hi): [lo +. float t (hi -. lo)].  That is bitwise
    [float t (hi -. lo) -. (-. lo)], since IEEE subtraction adds the
    negation and addition commutes. *)
