type t = {
  id : int;
  tag : string;
  start_pos : int;
  end_pos : int;
  level : int;
  parent : int;
  attrs : (string * string) list;
  text : string;
}

let root_parent = -1
let attr n name =
  let rec find = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k name then Some v else find rest
  in
  find n.attrs

let has_attr_value n name v =
  match attr n name with Some v' -> String.equal v v' | None -> false

let compare_start a b = compare a.start_pos b.start_pos
let width n = n.end_pos - n.start_pos

let pp ppf n =
  Fmt.pf ppf "%s[%d,%d)l%d" n.tag n.start_pos n.end_pos n.level
