(** Zipfian key-distribution generator (Gray et al., as used by YCSB).

    Draws integers in [0, n) where the k-th most popular item has
    probability proportional to 1 / k^theta. The paper's workload uses
    theta = 0.9 ("heavily skewed"). *)

type t

val create : n:int -> theta:float -> t
(** Precomputes the zeta constants: O(n), except that the normalizer of
    the last [(n, theta)] is remembered, so a generator over the same
    key space as the previous one costs O(1). Requires [n > 0] and
    [0 <= theta < 1]. *)

val next : t -> Rcc_common.Rng.t -> int
(** Draw one key. *)

val zetan : t -> float
(** The normalizer: the sum over [k = 1 .. n] of [1 / k ^ theta]. *)

val n : t -> int
val theta : t -> float
