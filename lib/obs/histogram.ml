open Repro_sim

type t = {
  edges : float array;
  bucket_counts : int array; (* length = edges + 1; last slot is overflow *)
  mutable samples : float array;
  mutable count : int;
}

(* Geometric-ish latency edges in milliseconds, spanning sub-CPU-cost
   events to badly stalled instances. *)
let default_edges =
  [| 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 1000.0 |]

let create ?(edges = default_edges) () =
  let edges = Array.copy edges in
  Array.iteri
    (fun i e ->
      if i > 0 && e <= edges.(i - 1) then
        invalid_arg "Histogram.create: edges must be strictly increasing")
    edges;
  {
    edges;
    bucket_counts = Array.make (Array.length edges + 1) 0;
    (* Allocated on the first sample: a sink creates its histograms when
       a group is built, and some never receive one. *)
    samples = [||];
    count = 0;
  }

(* First bucket whose upper edge admits v; the trailing slot catches
   everything past the last edge. Top-level, so [observe] allocates no
   closure. *)
let rec bucket_index edges v i =
  if i >= Array.length edges || v <= edges.(i) then i else bucket_index edges v (i + 1)

let observe t v =
  let i = bucket_index t.edges v 0 in
  t.bucket_counts.(i) <- t.bucket_counts.(i) + 1;
  if t.count = Array.length t.samples then begin
    let bigger = Array.make (max 64 (2 * t.count)) 0.0 in
    Array.blit t.samples 0 bigger 0 t.count;
    t.samples <- bigger
  end;
  t.samples.(t.count) <- v;
  t.count <- t.count + 1

let observe_span t span = observe t (Time.span_to_ms_float span)
let count t = t.count
let edges t = Array.copy t.edges

let buckets t =
  let upper i =
    if i < Array.length t.edges then Some t.edges.(i) else None (* +inf *)
  in
  Array.to_list (Array.mapi (fun i c -> (upper i, c)) t.bucket_counts)

let samples t = Array.to_list (Array.sub t.samples 0 t.count)
let summary t = Stats.summarize (samples t)

let absorb ~into src =
  if
    not
      (Array.length into.edges = Array.length src.edges
      && Array.for_all2 (fun a b -> Float.equal a b) into.edges src.edges)
  then invalid_arg "Histogram.absorb: bucket edges differ";
  List.iter (observe into) (samples src)
