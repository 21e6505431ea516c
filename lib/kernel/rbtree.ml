(* Classic red-black tree with parent pointers (CLRS-style), using an
   explicit nil sentinel so deletion fixup stays readable. *)

type color = Red | Black

type 'v node = {
  mutable key : int;
  mutable value : 'v;
  mutable color : color;
  mutable left : 'v node;
  mutable right : 'v node;
  mutable parent : 'v node;
}

type 'v t = { mutable root : 'v node; nil : 'v node; mutable size : int }

let make_nil () =
  let rec nil = { key = 0; value = Obj.magic 0; color = Black; left = nil; right = nil; parent = nil } in
  nil

let create () =
  let nil = make_nil () in
  { root = nil; nil; size = 0 }

let size t = t.size
let is_empty t = t.size = 0

let left_rotate t x =
  let y = x.right in
  x.right <- y.left;
  if y.left != t.nil then y.left.parent <- x;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else if x == x.parent.left then x.parent.left <- y
  else x.parent.right <- y;
  y.left <- x;
  x.parent <- y

let right_rotate t x =
  let y = x.left in
  x.left <- y.right;
  if y.right != t.nil then y.right.parent <- x;
  y.parent <- x.parent;
  if x.parent == t.nil then t.root <- y
  else if x == x.parent.right then x.parent.right <- y
  else x.parent.left <- y;
  y.right <- x;
  x.parent <- y

let rec insert_fixup t z =
  if z.parent.color = Red then begin
    if z.parent == z.parent.parent.left then begin
      let uncle = z.parent.parent.right in
      if uncle.color = Red then begin
        z.parent.color <- Black;
        uncle.color <- Black;
        z.parent.parent.color <- Red;
        insert_fixup t z.parent.parent
      end
      else begin
        (* If z is a right child, rotate its parent so the final
           right-rotation around the grandparent restores balance. *)
        let z =
          if z == z.parent.right then begin
            let p = z.parent in
            left_rotate t p;
            p
          end
          else z
        in
        z.parent.color <- Black;
        z.parent.parent.color <- Red;
        right_rotate t z.parent.parent
      end
    end
    else begin
      let uncle = z.parent.parent.left in
      if uncle.color = Red then begin
        z.parent.color <- Black;
        uncle.color <- Black;
        z.parent.parent.color <- Red;
        insert_fixup t z.parent.parent
      end
      else begin
        let z =
          if z == z.parent.left then begin
            let p = z.parent in
            right_rotate t p;
            p
          end
          else z
        in
        z.parent.color <- Black;
        z.parent.parent.color <- Red;
        left_rotate t z.parent.parent
      end
    end
  end

let insert t ~key value =
  let y = ref t.nil and x = ref t.root in
  let replaced = ref false in
  while !x != t.nil && not !replaced do
    y := !x;
    if key = !x.key then begin
      !x.value <- value;
      replaced := true
    end
    else if key < !x.key then x := !x.left
    else x := !x.right
  done;
  if not !replaced then begin
    let z =
      { key; value; color = Red; left = t.nil; right = t.nil; parent = !y }
    in
    if !y == t.nil then t.root <- z
    else if key < !y.key then !y.left <- z
    else !y.right <- z;
    insert_fixup t z;
    t.root.color <- Black;
    t.size <- t.size + 1
  end

let find_node t key =
  let rec go n = if n == t.nil then t.nil else if key = n.key then n else if key < n.key then go n.left else go n.right in
  go t.root

let find ?visit t ~key =
  let rec go n =
    if n == t.nil then None
    else begin
      (match visit with Some f -> f n.value | None -> ());
      if key = n.key then Some n.value else if key < n.key then go n.left else go n.right
    end
  in
  go t.root

let find_floor ?visit t ~key =
  let rec go n best =
    if n == t.nil then best
    else begin
      (match visit with Some f -> f n.value | None -> ());
      if key = n.key then Some (n.key, n.value)
      else if key < n.key then go n.left best
      else go n.right (Some (n.key, n.value))
    end
  in
  go t.root None

let min_node t n =
  let rec go n = if n.left == t.nil then n else go n.left in
  if n == t.nil then t.nil else go n

let transplant t u v =
  if u.parent == t.nil then t.root <- v
  else if u == u.parent.left then u.parent.left <- v
  else u.parent.right <- v;
  v.parent <- u.parent

let rec delete_fixup t x =
  if x != t.root && x.color = Black then begin
    if x == x.parent.left then begin
      let w = ref x.parent.right in
      if !w.color = Red then begin
        !w.color <- Black;
        x.parent.color <- Red;
        left_rotate t x.parent;
        w := x.parent.right
      end;
      if !w.left.color = Black && !w.right.color = Black then begin
        !w.color <- Red;
        delete_fixup t x.parent
      end
      else begin
        if !w.right.color = Black then begin
          !w.left.color <- Black;
          !w.color <- Red;
          right_rotate t !w;
          w := x.parent.right
        end;
        !w.color <- x.parent.color;
        x.parent.color <- Black;
        !w.right.color <- Black;
        left_rotate t x.parent
      end
    end
    else begin
      let w = ref x.parent.left in
      if !w.color = Red then begin
        !w.color <- Black;
        x.parent.color <- Red;
        right_rotate t x.parent;
        w := x.parent.left
      end;
      if !w.right.color = Black && !w.left.color = Black then begin
        !w.color <- Red;
        delete_fixup t x.parent
      end
      else begin
        if !w.left.color = Black then begin
          !w.right.color <- Black;
          !w.color <- Red;
          left_rotate t !w;
          w := x.parent.left
        end;
        !w.color <- x.parent.color;
        x.parent.color <- Black;
        !w.left.color <- Black;
        right_rotate t x.parent
      end
    end
  end
  else x.color <- Black

let remove t ~key =
  let z = find_node t key in
  if z == t.nil then false
  else begin
    let y = ref z in
    let y_original_color = ref !y.color in
    let x = ref t.nil in
    if z.left == t.nil then begin
      x := z.right;
      transplant t z z.right
    end
    else if z.right == t.nil then begin
      x := z.left;
      transplant t z z.left
    end
    else begin
      let succ = min_node t z.right in
      y := succ;
      y_original_color := succ.color;
      x := succ.right;
      if succ.parent == z then !x.parent <- succ
      else begin
        transplant t succ succ.right;
        succ.right <- z.right;
        succ.right.parent <- succ
      end;
      transplant t z succ;
      succ.left <- z.left;
      succ.left.parent <- succ;
      succ.color <- z.color
    end;
    if !y_original_color = Black then delete_fixup t !x;
    (* Scrub the sentinel's parent link left by fixup paths. *)
    t.nil.parent <- t.nil;
    t.nil.left <- t.nil;
    t.nil.right <- t.nil;
    t.nil.color <- Black;
    t.size <- t.size - 1;
    true
  end

let iter t ~f =
  let rec go n =
    if n != t.nil then begin
      go n.left;
      f n.key n.value;
      go n.right
    end
  in
  go t.root

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let check_invariants t =
  let exception Bad of string in
  let rec check n lo hi =
    if n == t.nil then 1
    else begin
      (match lo with Some l when n.key <= l -> raise (Bad "ordering violated") | _ -> ());
      (match hi with Some h when n.key >= h -> raise (Bad "ordering violated") | _ -> ());
      if n.color = Red && (n.left.color = Red || n.right.color = Red) then
        raise (Bad "red node with red child");
      let bl = check n.left lo (Some n.key) in
      let br = check n.right (Some n.key) hi in
      if bl <> br then raise (Bad "black-height mismatch");
      bl + (if n.color = Black then 1 else 0)
    end
  in
  try
    if t.root != t.nil && t.root.color = Red then Error "red root"
    else begin
      ignore (check t.root None None);
      (* size agrees *)
      let n = ref 0 in
      iter t ~f:(fun _ _ -> incr n);
      if !n <> t.size then Error "size mismatch" else Ok ()
    end
  with Bad msg -> Error msg
