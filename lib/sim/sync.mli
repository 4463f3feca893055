(** Synchronization primitives in virtual time.

    FIFO-fair and deterministic: waiters are woken in arrival order at the
    current virtual instant. *)

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  (** Raises [Invalid_argument] if the mutex is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically release the mutex and block; re-acquires before return. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val value : t -> int
end

(** Single-assignment cell: the rendezvous used for asynchronous IO
    completion ([msnap_wait], disk interrupts). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled; immediate if already filled. *)
end
