module M = Map.Make (struct
  type t = App_msg.id

  let compare = App_msg.compare_id
end)

type t = App_msg.t M.t

let empty = M.empty
let is_empty = M.is_empty
let add t m = M.add m.App_msg.id m t
let of_list l = List.fold_left add empty l
let to_list t = List.map snd (M.bindings t)
let iter f t = M.iter (fun _ m -> f m) t
let size = M.cardinal
let take t ~cap =
  if size t <= cap then t
  else
    let rec first acc k = function
      | m :: rest when k > 0 -> first (m :: acc) (k - 1) rest
      | _ -> acc
    in
    of_list (first [] cap (to_list t))

let payload_bytes t = M.fold (fun _ m acc -> acc + m.App_msg.size) t 0
let mem t id = M.mem id t
let union a b = M.union (fun _ m _ -> Some m) a b
let remove_ids t ids = M.filter (fun id _ -> not (App_msg.Id_set.mem id ids)) t

(* Decided batches are small and [t] can be large (the coordinator pool),
   so removing per decided id beats [remove_ids]'s whole-map rebuild —
   and skips materialising the id set entirely. *)
let diff t b = M.fold (fun id _ acc -> M.remove id acc) b t
let ids t = M.fold (fun id _ acc -> App_msg.Id_set.add id acc) t App_msg.Id_set.empty
let equal a b = M.equal (fun x y -> App_msg.compare x y = 0) a b

let pp ppf t =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") App_msg.pp) (to_list t)
