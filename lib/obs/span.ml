open Repro_sim

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]

let layer_name = function
  | `Abcast -> "abcast"
  | `Consensus -> "consensus"
  | `Rbcast -> "rbcast"
  | `Net -> "net"
  | `App -> "app"

let layer_of_name = function
  | "abcast" -> Some `Abcast
  | "consensus" -> Some `Consensus
  | "rbcast" -> Some `Rbcast
  | "net" -> Some `Net
  | "app" -> Some `App
  | _ -> None

let all_layers : layer list = [ `Abcast; `Consensus; `Rbcast; `Net; `App ]

type t = {
  sid : int;
  parent : int;
  at : Time.t;
  pid : int;
  layer : layer;
  phase : string;
  detail : string;
}

let no_parent = 0
let is_root s = s.parent = no_parent

let pp ppf s =
  Fmt.pf ppf "#%d<-#%d p%d %s/%s%s" s.sid s.parent (s.pid + 1) (layer_name s.layer)
    s.phase
    (if s.detail = "" then "" else " " ^ s.detail)

(* ---- Detail strings ----

   Each builder sizes its result first, then fills it: one allocation,
   the string itself. Digits are produced from the non-positive side
   ([m <= 0]), where every int, [min_int] included, has an exact
   magnitude; negating [min_int] would overflow. *)

let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1)
let int_width n = if n < 0 then 1 + digits n 1 else digits (-n) 1

(* Writes the digits of [m <= 0] leftwards, the last one at [i]. *)
let rec put_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (i - 1) (m / 10)

(* Writes [n] at [pos] and returns the position after it. *)
let put_int b pos n =
  let w = int_width n in
  if n < 0 then Bytes.unsafe_set b pos '-';
  put_digits b (pos + w - 1) (if n < 0 then n else -n);
  pos + w

let put_str b pos s =
  let l = String.length s in
  Bytes.unsafe_blit_string s 0 b pos l;
  pos + l

let detail1 a x b =
  let buf = Bytes.create (String.length a + int_width x + String.length b) in
  ignore (put_str buf (put_int buf (put_str buf 0 a) x) b);
  Bytes.unsafe_to_string buf

let detail2 a x b y c =
  let buf =
    Bytes.create
      (String.length a + int_width x + String.length b + int_width y + String.length c)
  in
  let pos = put_int buf (put_str buf 0 a) x in
  ignore (put_str buf (put_int buf (put_str buf pos b) y) c);
  Bytes.unsafe_to_string buf

let detail3 a x b y c z d =
  let buf =
    Bytes.create
      (String.length a + int_width x + String.length b + int_width y + String.length c
     + int_width z + String.length d)
  in
  let pos = put_int buf (put_str buf 0 a) x in
  let pos = put_int buf (put_str buf pos b) y in
  ignore (put_str buf (put_int buf (put_str buf pos c) z) d);
  Bytes.unsafe_to_string buf
