type open_frame = {
  o_id : int;
  o_tag : string;
  o_start : int;
  o_level : int;
  o_parent : int;
  o_attrs : (string * string) list;
  mutable o_text : string list;  (* pieces, newest first; most have 0 or 1 *)
}

type t = {
  mutable pos : int;  (* next position to hand out *)
  mutable next_id : int;
  mutable stack : open_frame list;
  mutable closed : bool;  (* a root has been fully closed *)
  mutable nodes : Node.t array;  (* indexed by id, filled at close *)
}

let placeholder =
  {
    Node.id = -1;
    tag = "";
    start_pos = 0;
    end_pos = 0;
    level = 0;
    parent = Node.root_parent;
    attrs = [];
    text = "";
  }

let create () =
  { pos = 0; next_id = 0; stack = []; closed = false; nodes = Array.make 64 placeholder }

let open_element ?(attrs = []) t tag =
  (match (t.stack, t.closed) with
  | [], true -> invalid_arg "Builder.open_element: second root"
  | _ -> ());
  let parent = match t.stack with [] -> Node.root_parent | f :: _ -> f.o_id in
  let level = match t.stack with [] -> 0 | f :: _ -> f.o_level + 1 in
  let frame =
    {
      o_id = t.next_id;
      o_tag = tag;
      o_start = t.pos;
      o_level = level;
      o_parent = parent;
      o_attrs = attrs;
      o_text = [];
    }
  in
  t.next_id <- t.next_id + 1;
  t.pos <- t.pos + 1;
  t.stack <- frame :: t.stack

let text t s =
  match t.stack with
  | [] -> invalid_arg "Builder.text: no open element"
  | f :: _ -> f.o_text <- s :: f.o_text

let close_element t =
  match t.stack with
  | [] -> invalid_arg "Builder.close_element: no open element"
  | f :: rest ->
      let text =
        match f.o_text with
        | [] -> ""
        | [ s ] -> s
        | pieces -> String.concat "" (List.rev pieces)
      in
      let node =
        {
          Node.id = f.o_id;
          tag = f.o_tag;
          start_pos = f.o_start;
          end_pos = t.pos;
          level = f.o_level;
          parent = f.o_parent;
          attrs = f.o_attrs;
          text;
        }
      in
      t.pos <- t.pos + 1;
      if f.o_id >= Array.length t.nodes then begin
        let grown =
          Array.make (max (f.o_id + 1) (2 * Array.length t.nodes)) placeholder
        in
        Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
        t.nodes <- grown
      end;
      t.nodes.(f.o_id) <- node;
      t.stack <- rest;
      if rest == [] then t.closed <- true

let leaf ?attrs ?text:(txt = "") t tag =
  open_element ?attrs t tag;
  if txt <> "" then text t txt;
  close_element t

let depth t = List.length t.stack

let finish t =
  if t.stack <> [] then invalid_arg "Builder.finish: unclosed elements";
  if not t.closed then invalid_arg "Builder.finish: no root element";
  Document.of_nodes (Array.sub t.nodes 0 t.next_id)
