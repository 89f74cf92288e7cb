(** Mutable dense membership sets for (origin, seq) message identities.

    The protocol layers keep two unbounded "have I processed this
    already?" sets — adelivered application messages and rdelivered
    reliable-broadcast envelopes. Both are keyed by an origin process and
    a per-origin sequence number counted densely from 0, which makes a
    per-origin bit vector the natural store: membership and insertion are
    O(1) with no allocation once a row has grown to its working size,
    where the persistent [Set] they replace pays a tree walk and
    rebalance allocation per operation, growing with the run length (see
    PERF.md).

    {2 Determinism obligations}

    - Purely content-driven: the representation depends only on the set
      of identities inserted, never on insertion order, hashing, wall
      time or randomness.
    - Membership-only: the API deliberately has no iteration, so no
      caller can pick up an internal traversal order. *)

type t

val create : n:int -> t
(** An empty table for origins [0 .. n-1]. *)

val mem : t -> origin:int -> seq:int -> bool
(** [false] for any [seq] never added (including negative ones). *)

val add : t -> origin:int -> seq:int -> unit
(** Idempotent. @raise Invalid_argument on negative [seq]. *)

val population : t -> int
(** Number of identities in the table. Content-driven arithmetic — no
    iteration order is exposed. Used by snapshot sections. *)
