(** Persistent root directory: a crash-consistent name → root-location
    registry at a well-known place in fabric memory, so recovery can find
    its data structures with no surviving process state (the root-object
    idiom of persistent-memory programming, built from CXL0 MStores).

    Bootstrap convention: the directory occupies the *first* locations
    allocated on its home machine.  Name hashes are not disambiguated;
    use distinct names.  Re-registering a name overwrites its root. *)

type t

val create : Sched.ctx -> ?slots:int -> home:int -> unit -> t
(** Allocate and zero the directory on [home] (16 slots by default).
    Must be the first allocation on that machine (asserted). *)

val attach : Fabric.t -> ?slots:int -> home:int -> unit -> t
(** Reconstruct the handle after a crash via the bootstrap convention.
    Raises [Invalid_argument] if [home] has no locations. *)

val register : t -> Sched.ctx -> name:string -> Fabric.loc -> bool
(** Durably bind [name] to the root location; [false] when full.
    Safe against concurrent registrations (MStore-strength CAS). *)

val lookup : t -> Sched.ctx -> name:string -> Fabric.loc option
(** The registered root, if any; a registration cut down mid-flight by a
    crash reads as absent. *)

val names_used : t -> Sched.ctx -> int
