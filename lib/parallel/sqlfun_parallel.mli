(** OCaml 5 domains for the campaign runner.

    Determinism of the fuzzing campaigns is established one level up,
    by the shard/merge protocol in [Soft_runner], never by scheduling:
    {!map} promises the order of its results, not the order in which
    items run. *)

module Progress = Progress

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every item of [xs]; results come
    back in input order. At [jobs <= 1] the items run in order on the
    calling domain and nothing is spawned. Otherwise
    [min jobs (List.length xs)] spawned domains take items through one
    shared cursor while the calling domain only waits: the same campaign
    peaks higher in [Gc.top_heap_words] on the calling domain than on a
    fresh one (17–25% on two shards, 2-core host). Every item runs even when one raises; once every
    spawned domain is joined, the first failure in input order is
    re-raised with its backtrace. *)
