type t = { mutable state : int64 }

(* SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, passes BigCrush when
   used as here, and trivially splittable -- exactly what a deterministic
   simulation needs. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix64 (Int64.of_int seed) }

(* The one sanctioned form of seed arithmetic: a component that must own a
   stream *independent of the engine's by construction* (so that arming it
   cannot perturb later engine draws the way [split] would) derives it here
   by constant mixing. Keeping the xor in this module lets `repro lint`'s
   rng-stream rule reject ad-hoc seed arithmetic everywhere else. *)
let derive ~seed ~salt = create ~seed:(seed lxor salt)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let rec draw () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    (* Reject the biased tail of the range. *)
    if r >= max_int - (max_int mod bound) then draw () else r mod bound
  in
  draw ()

let float t bound =
  (* 53 uniform bits, the mantissa width of a double. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* u = 0 would give infinity; nudge into (0, 1]. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let snapshot ?(name = "sim.rng") t =
  Snapshot.make ~name ~version:1 [ ("state", Snapshot.I64 t.state) ]
