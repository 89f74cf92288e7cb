(** Batches of application messages — the values decided by consensus.

    The atomic broadcast reduction (§3.3) runs consensus on {e sets} of
    unordered messages; a decided batch is then adelivered "in some
    deterministic order". We keep batches sorted by message identity, which
    makes them canonical: two batches with the same messages are equal, and
    delivery order is determined by the batch alone. *)

type t
(** A canonical (sorted, duplicate-free) batch. *)

val empty : t
val is_empty : t -> bool

val of_list : App_msg.t list -> t
(** Sorts and deduplicates (by identity). *)

val to_list : t -> App_msg.t list
(** Ascending identity order — the adelivery order. *)

val iter : (App_msg.t -> unit) -> t -> unit
(** Visits the messages in {!to_list}'s order without building the list. *)

val size : t -> int
(** Number of messages (the paper's per-consensus [M]). *)

val take : t -> cap:int -> t
(** The first [cap] messages in identity order; [t] itself when it fits. *)

val payload_bytes : t -> int
(** Sum of the payload sizes of all messages. *)

val mem : t -> App_msg.id -> bool
val add : t -> App_msg.t -> t
val union : t -> t -> t

val remove_ids : t -> App_msg.Id_set.t -> t
(** Drop all messages whose identity is in the set. *)

val diff : t -> t -> t
(** [diff t b] drops from [t] every message whose identity appears in
    [b]. Equivalent to [remove_ids t (ids b)] without building the set;
    cost is [|b| log |t|] rather than a full rebuild of [t]. *)

val ids : t -> App_msg.Id_set.t

val equal : t -> t -> bool
(** Same message identities. *)

val pp : t Fmt.t
(** Prints [{p1#0, p2#3}]. *)
