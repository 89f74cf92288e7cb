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
