exception Parse_error of { line : int; col : int; message : string }

(* [target] occurs in [src] at [i]; the caller checks that it fits. *)
let matches_at src i target =
  let n = String.length target in
  let j = ref 0 in
  while
    !j < n && String.unsafe_get src (i + !j) = String.unsafe_get target !j
  do
    incr j
  done;
  !j = n

(* Interned tag and attribute names: an open-addressing table keyed by the
   source bytes, so a lookup hashes and compares [src.[start..stop)] in
   place and only a miss allocates the one shared copy. *)
module Names = struct
  type t = { mutable keys : string array; mutable count : int }

  let create () = { keys = Array.make 64 ""; count = 0 }

  let hash src start stop =
    let h = ref 0 in
    for i = start to stop - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get src i)
    done;
    !h land max_int

  let equal_sub key src start stop =
    String.length key = stop - start && matches_at src start key

  let rec slot keys mask key_hash src start stop =
    let k = Array.unsafe_get keys key_hash in
    if k = "" || equal_sub k src start stop then key_hash
    else slot keys mask ((key_hash + 1) land mask) src start stop

  let grow t =
    let old = t.keys in
    let keys = Array.make (2 * Array.length old) "" in
    let mask = Array.length keys - 1 in
    Array.iter
      (fun k ->
        if k <> "" then
          let n = String.length k in
          keys.(slot keys mask (hash k 0 n land mask) k 0 n) <- k)
      old;
    t.keys <- keys

  (* [stop > start]: names are never empty, so [""] marks a free slot. *)
  let intern t src start stop =
    let mask = Array.length t.keys - 1 in
    let i = slot t.keys mask (hash src start stop land mask) src start stop in
    let k = Array.unsafe_get t.keys i in
    if k <> "" then k
    else begin
      let k = String.sub src start (stop - start) in
      t.keys.(i) <- k;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.keys then grow t;
      k
    end
end

type state = {
  src : string;
  len : int;
  mutable pos : int;
  names : Names.t;
  buf : Buffer.t;  (* scratch for values and text that hold references *)
}

(* Line and column are derived from the byte offset only when an error is
   reported, so the scanner itself tracks nothing but [pos]. *)
let fail st message =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min st.pos st.len - 1 do
    if String.unsafe_get st.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error { line = !line; col = st.pos - !bol + 1; message })

let peek st = if st.pos < st.len then String.unsafe_get st.src st.pos else '\000'

let peek2 st =
  if st.pos + 1 < st.len then String.unsafe_get st.src (st.pos + 1) else '\000'

let expect st c =
  if peek st = c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C, found %C" c (peek st))

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The set [String.trim] strips: character data is trimmed by it. *)
let is_trim = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let skip_spaces st =
  let src = st.src and len = st.len in
  let p = ref st.pos in
  while !p < len && is_space (String.unsafe_get src !p) do
    incr p
  done;
  st.pos <- !p

(* Advance past a name and return its end; [st.pos] stays at its start. *)
let name_end st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let src = st.src and len = st.len in
  let p = ref (st.pos + 1) in
  while !p < len && is_name_char (String.unsafe_get src !p) do
    incr p
  done;
  !p

let read_name st =
  let start = st.pos in
  let stop = name_end st in
  st.pos <- stop;
  Names.intern st.names st.src start stop

(* Decode an entity starting just after '&'.  Every entity this parser
   accepts stands for one byte. *)
let read_entity st =
  match String.index_from_opt st.src st.pos ';' with
  | None ->
      st.pos <- st.len;
      fail st "unterminated entity"
  | Some semi -> (
      let name = String.sub st.src st.pos (semi - st.pos) in
      st.pos <- semi + 1;
      match name with
      | "lt" -> '<'
      | "gt" -> '>'
      | "amp" -> '&'
      | "apos" -> '\''
      | "quot" -> '"'
      | _ ->
          let decode prefix base =
            let digits =
              String.sub name (String.length prefix)
                (String.length name - String.length prefix)
            in
            match int_of_string_opt (base ^ digits) with
            | Some code when code >= 0 && code < 128 -> Char.chr code
            | Some _ -> '?' (* non-ASCII: keep documents byte-oriented *)
            | None -> fail st ("bad character reference &" ^ name ^ ";")
          in
          if String.length name > 2 && name.[0] = '#'
             && (name.[1] = 'x' || name.[1] = 'X')
          then decode "#x" "0x"
          else if String.length name > 1 && name.[0] = '#' then decode "#" ""
          else fail st ("unknown entity &" ^ name ^ ";"))

(* First index at or after [i] holding [a] or [b], or [len]. *)
let scan_to2 st i a b =
  let src = st.src and len = st.len in
  let p = ref i in
  while
    !p < len
    &&
    let c = String.unsafe_get src !p in
    c <> a && c <> b
  do
    incr p
  done;
  !p

(* Append the data from [st.pos] up to the first [until] byte (or the end
   of input) to [buf], decoding references -- all but the last raw
   segment: on return [st.pos] is where that segment starts and the result
   is where it stops.  Without references nothing is appended and
   [st.pos] does not move. *)
let rec decode_refs st until =
  let stop = scan_to2 st st.pos until '&' in
  if stop < st.len && String.unsafe_get st.src stop = '&' then begin
    Buffer.add_substring st.buf st.src st.pos (stop - st.pos);
    st.pos <- stop + 1;
    Buffer.add_char st.buf (read_entity st);
    decode_refs st until
  end
  else stop

(* [src.[start..stop)] after the references [decode_refs] put in [buf]. *)
let finish_run st start stop =
  if st.pos = start then String.sub st.src start (stop - start)
  else begin
    Buffer.add_substring st.buf st.src st.pos (stop - st.pos);
    Buffer.contents st.buf
  end

let read_quoted st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  st.pos <- st.pos + 1;
  let start = st.pos in
  Buffer.clear st.buf;
  let stop = decode_refs st quote in
  if stop >= st.len then begin
    st.pos <- st.len;
    fail st "unterminated attribute value"
  end;
  let value = finish_run st start stop in
  st.pos <- stop + 1;
  value

(* Attributes in source order; built front to back, no reversal. *)
let rec read_attrs st =
  skip_spaces st;
  if is_name_start (peek st) then begin
    let name = read_name st in
    skip_spaces st;
    expect st '=';
    skip_spaces st;
    let value = read_quoted st in
    (name, value) :: read_attrs st
  end
  else []

(* Move past the next occurrence of [target], matched in place.  When it
   is missing, the error points where the target would have to start. *)
let skip_until st target =
  let tlen = String.length target in
  let rec go i =
    if i + tlen > st.len then begin
      st.pos <- max st.pos (st.len - tlen + 1);
      fail st ("unterminated " ^ target)
    end
    else if matches_at st.src i target then st.pos <- i + tlen
    else go (i + 1)
  in
  go st.pos

let starts_with st prefix =
  st.pos + String.length prefix <= st.len && matches_at st.src st.pos prefix

(* Skip <?...?>, <!--...-->, <!DOCTYPE...> between markup. *)
let rec skip_misc st =
  skip_spaces st;
  if peek st = '<' then
    match peek2 st with
    | '?' ->
        skip_until st "?>";
        skip_misc st
    | '!' ->
        if starts_with st "<!--" then skip_until st "-->" else skip_until st ">";
        skip_misc st
    | _ -> ()

(* A run of character data and references up to the next markup (or end
   of input), decoded as one piece.  Only the run's leading and trailing
   raw whitespace is trimmed; a whitespace-only run yields [""] without
   allocating. *)
let read_text st =
  let src = st.src in
  while st.pos < st.len && is_trim (String.unsafe_get src st.pos) do
    st.pos <- st.pos + 1
  done;
  let start = st.pos in
  Buffer.clear st.buf;
  let stop = decode_refs st '<' in
  let e = ref stop in
  while !e > st.pos && is_trim (String.unsafe_get src (!e - 1)) do
    decr e
  done;
  let text = if !e = start then "" else finish_run st start !e in
  st.pos <- stop;
  text

let parse_string src =
  let st =
    {
      src;
      len = String.length src;
      pos = 0;
      names = Names.create ();
      buf = Buffer.create 64;
    }
  in
  let builder = Builder.create () in
  skip_misc st;
  if st.pos >= st.len then fail st "empty document";
  let rec element () =
    expect st '<';
    let tag = read_name st in
    let attrs = read_attrs st in
    skip_spaces st;
    if peek st = '/' then begin
      st.pos <- st.pos + 1;
      expect st '>';
      Builder.leaf ~attrs builder tag
    end
    else begin
      expect st '>';
      Builder.open_element ~attrs builder tag;
      content tag;
      Builder.close_element builder
    end
  and content tag =
    if st.pos >= st.len then fail st ("unterminated element <" ^ tag ^ ">")
    else if peek st = '<' then
      match peek2 st with
      | '/' -> close_tag tag
      | '!' ->
          if starts_with st "<![CDATA[" then begin
            st.pos <- st.pos + 9;
            let start = st.pos in
            skip_until st "]]>";
            Builder.text builder (String.sub src start (st.pos - 3 - start))
          end
          else skip_until st "-->";
          content tag
      | '?' ->
          skip_until st "?>";
          content tag
      | _ ->
          element ();
          content tag
    else begin
      let s = read_text st in
      if s <> "" then Builder.text builder s;
      content tag
    end
  (* Compare the closing name against [tag] in place; the closing name is
     only copied out for the mismatch message. *)
  and close_tag tag =
    st.pos <- st.pos + 2;
    let start = st.pos in
    let stop = name_end st in
    st.pos <- stop;
    skip_spaces st;
    expect st '>';
    if not (Names.equal_sub tag src start stop) then
      fail st
        (Printf.sprintf "mismatched </%s>, expected </%s>"
           (String.sub src start (stop - start))
           tag)
  in
  element ();
  skip_misc st;
  skip_spaces st;
  if st.pos < st.len then fail st "content after root element";
  Builder.finish builder

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

let error_to_string = function
  | Parse_error { line; col; message } ->
      Some (Printf.sprintf "XML parse error at %d:%d: %s" line col message)
  | _ -> None
