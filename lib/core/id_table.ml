(* Dense membership sets for (origin, seq) message identities.

   [delivered]/[seen] sets grow for the whole run, so the persistent
   [Set] they replaced paid an ever-deepening tree walk plus rebalance
   allocation on every adeliver — by far the largest lib/core line in the
   PERF.md profile. Identities are per-origin sequence numbers assigned
   contiguously from 0, so a per-origin bit vector gives O(1) mem/add
   with no steady-state allocation. Content-driven only: growth depends
   on the largest seq inserted, never on wall time or hashing order, so
   replacing the Set cannot reorder anything (see PERF.md §determinism). *)

type t = { rows : Bytes.t array (* rows.(origin): bit per seq *) }

let create ~n = { rows = Array.init n (fun _ -> Bytes.make 64 '\000') }

let mem t ~origin ~seq =
  let row = t.rows.(origin) in
  let byte = seq lsr 3 in
  seq >= 0
  && byte < Bytes.length row
  && Char.code (Bytes.get row byte) land (1 lsl (seq land 7)) <> 0

let add t ~origin ~seq =
  if seq < 0 then invalid_arg "Id_table.add: negative seq";
  let byte = seq lsr 3 in
  let row =
    let row = t.rows.(origin) in
    let len = Bytes.length row in
    if byte < len then row
    else begin
      let len' = ref (len * 2) in
      while byte >= !len' do
        len' := !len' * 2
      done;
      let row' = Bytes.make !len' '\000' in
      Bytes.blit row 0 row' 0 len;
      t.rows.(origin) <- row';
      row'
    end
  in
  Bytes.set row byte
    (Char.chr (Char.code (Bytes.get row byte) lor (1 lsl (seq land 7))))

let population t =
  let bits_of_byte = Array.init 256 (fun c ->
      let rec pop c = if c = 0 then 0 else (c land 1) + pop (c lsr 1) in
      pop c)
  in
  Array.fold_left
    (fun acc row ->
      let total = ref acc in
      Bytes.iter (fun c -> total := !total + bits_of_byte.(Char.code c)) row;
      !total)
    0 t.rows
