let ref_s = 0.035

(* Random updates to a 64 Ki-entry hash table, a stream of short-lived
   list cells, and a sort of a 25 Ki-element array: the same mix of
   allocation and scattered memory access as the simulator's loop. *)
let once () =
  let t0 = Unix.gettimeofday () in
  let table = Hashtbl.create 16 in
  let x = ref 12345 and cells = ref [] in
  for i = 1 to 75_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace table (!x land 0xffff) (i, !x);
    cells := (i, !x) :: (if i land 1023 = 0 then [] else !cells)
  done;
  let a = Array.init 25_000 (fun i -> i * 7919 land 0xfffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (table, cells, a));
  Unix.gettimeofday () -. t0

(* The median of three readings drops a reading that a momentary stall
   hit. *)
let run () =
  let a = once () and b = once () and c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)
