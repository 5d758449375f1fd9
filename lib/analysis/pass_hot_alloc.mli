(** Hot-path allocation pass.

    DESIGN §11's zero-allocation rules were established by measurement
    ([test_alloc]'s exact-zero [Gc.minor_words] probes, the BENCH_<n>
    trajectory); this pass enforces them structurally so the next PR
    cannot quietly re-introduce per-event allocation. A function is
    {e hot} when it appears on the built-in allowlist (the
    [Sim.Eventq] cycle, the blockcache open-addressing table, intrusive
    LRU and steady-state read/write/write-back/flush walks, the rpc DRC
    request path, [Nfs.Wire.handle_basic], the pooled [Xdr.Enc]
    operations, the [Obs.Trace]/[Obs.Metrics] [on] fast paths) or when
    its definition — or the file header, for whole-file coverage — is
    marked with an [(* snfs-hot *)] comment.

    Inside a hot function the pass flags: [Some]/[::]/variant payload,
    tuple, record and array construction; anonymous closures and lazy
    thunks; partial application of known same-file functions;
    [Printf]/[Format]; polymorphic [compare]/[Hashtbl.hash], [=]/[<>]
    applied to syntactically structured operands, and comparison
    operators passed as values; [@]/[^] and the allocating
    [List]/[Array]/[Bytes]/[String] operations; any [Hashtbl] or
    [Buffer] use; and [mutable] [float] fields in mixed records (which
    box on every store — rule 2); and named local functions that
    capture a parameter, local [let] or pattern variable of the
    enclosing function, which are closures built at every evaluation
    of their definition (rule 9).

    Exemptions, matching what ocamlopt actually compiles: local [ref]s
    (unboxed when they do not escape), named local functions that
    capture nothing (static closures), argument subtrees of raising heads
    ([raise]/[failwith]/[invalid_arg]/module-local [error]) since
    raise paths are cold, and the then-branch of
    [if Obs.Trace.on () / Obs.Metrics.on ()] guards — rule 7 only
    demands that observability {e off} be allocation-free. *)

val pass : Pass.t
