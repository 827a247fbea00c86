(** Keyed leasing of expensive, immutable resources.

    A lease table memoizes [build] results by string key so that a
    resource built deterministically from its key — a hardened tenant
    binary, a compiled program — is constructed {e once} and then
    handed out ("leased") to every subsequent acquirer.  The server
    runtime uses one table to share each tenant's prepared instance
    across thousands of sessions and across repeated experiment runs.

    Concurrency: the table is mutex-guarded and safe to drive from
    parallel {!Pool} jobs.  A build runs under the table lock, so two
    domains can never build the same key twice; builds of {e distinct}
    keys serialize too — acceptable because acquirers are expected to
    pre-build their keys sequentially (see {!Tenant.prepare_all} in
    [lib/server]) and lease from jobs afterwards.

    Determinism: [build] must be a pure function of the key; a leased
    value is indistinguishable from a freshly built one. *)

type 'a t

val create : unit -> 'a t

val acquire : 'a t -> key:string -> build:(unit -> 'a) -> 'a
(** [acquire t ~key ~build] returns the cached value for [key],
    building and caching it first if absent. *)
