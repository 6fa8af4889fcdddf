(** The MiniHaskell standard prelude.

    Defines the standard classes of the paper's setting — [Eq], [Ord],
    [Text] (printing), [Parse] (return-type overloading, the paper's [read]
    example) and [Num] (with [Eq] and [Text] superclasses, as in §8.1) —
    together with instances for the primitive and built-in types and the
    usual list/function library.

    It is checked once per process into the snapshot every user program
    extends (see [Pipeline]), and exercises the whole pipeline: classes,
    superclasses, defaults, derived instances, overloaded literals,
    signatures, and pattern-match compilation. *)

let source = {prelude|
-- Booleans ----------------------------------------------------------

data Bool = False | True deriving (Eq, Ord, Text)

not True  = False
not False = True

otherwise = True

infixr 3 &&
infixr 2 ||

True  && x = x
False && x = False

True  || x = True
False || x = x

-- Classes ------------------------------------------------------------

class Eq a where
  (==) :: a -> a -> Bool
  (/=) :: a -> a -> Bool
  x /= y = not (x == y)

data Ordering = LT | EQ | GT deriving (Eq, Ord, Text)

class Eq a => Ord a where
  (<=)    :: a -> a -> Bool
  (<)     :: a -> a -> Bool
  (>)     :: a -> a -> Bool
  (>=)    :: a -> a -> Bool
  max     :: a -> a -> a
  min     :: a -> a -> a
  compare :: a -> a -> Ordering
  x < y   = not (y <= x)
  x > y   = not (x <= y)
  x >= y  = y <= x
  max x y = if x <= y then y else x
  min x y = if x <= y then x else y
  compare x y = if x == y then EQ else if x <= y then LT else GT

class Text a where
  str :: a -> String

class Parse a where
  parse :: String -> a

instance Parse Bool where
  parse "True"  = True
  parse "False" = False
  parse s       = error ("parse: not a Bool: " ++ s)

class (Eq a, Text a) => Num a where
  (+) :: a -> a -> a
  (-) :: a -> a -> a
  (*) :: a -> a -> a
  negate   :: a -> a
  abs      :: a -> a
  signum   :: a -> a
  fromInt  :: Int -> a
  negate x = fromInt 0 - x

-- Int ------------------------------------------------------------------

instance Eq Int where
  (==) = primEqInt

instance Ord Int where
  (<=) = primLeInt

instance Text Int where
  str = primIntStr

instance Parse Int where
  parse = primStrInt

instance Num Int where
  (+) = primAddInt
  (-) = primSubInt
  (*) = primMulInt
  negate = primNegInt
  abs n = if n < 0 then negate n else n
  signum n = if n < 0 then negate 1 else if n == 0 then 0 else 1
  fromInt n = n

div = primDivInt
mod = primModInt

even :: Int -> Bool
even n = mod n 2 == 0

odd :: Int -> Bool
odd n = not (even n)

-- Float ----------------------------------------------------------------

instance Eq Float where
  (==) = primEqFloat

instance Ord Float where
  (<=) = primLeFloat

instance Text Float where
  str = primFloatStr

instance Parse Float where
  parse = primStrFloat

instance Num Float where
  (+) = primAddFloat
  (-) = primSubFloat
  (*) = primMulFloat
  negate = primNegFloat
  abs x = if x < 0.0 then negate x else x
  signum x = if x < 0.0 then negate 1.0 else if x == 0.0 then 0.0 else 1.0
  fromInt = primIntToFloat

(/) :: Float -> Float -> Float
(/) = primDivFloat

fromIntegral :: Num a => Int -> a
fromIntegral = fromInt

-- Char -------------------------------------------------------------------

type String = [Char]

instance Eq Char where
  (==) = primEqChar

instance Ord Char where
  (<=) = primLeChar

instance Text Char where
  str c = c : []

ord = primOrd
chr = primChr

-- Unit, tuples -------------------------------------------------------------

instance Eq () where
  x == y = True

instance Text () where
  str x = "()"

instance (Eq a, Eq b) => Eq (a, b) where
  (a1, b1) == (a2, b2) = a1 == a2 && b1 == b2

instance (Ord a, Ord b) => Ord (a, b) where
  (a1, b1) <= (a2, b2) = a1 < a2 || (a1 == a2 && b1 <= b2)

instance (Text a, Text b) => Text (a, b) where
  str p = case p of
    (a, b) -> "(" ++ str a ++ ", " ++ str b ++ ")"

instance (Eq a, Eq b, Eq c) => Eq (a, b, c) where
  (a1, b1, c1) == (a2, b2, c2) = a1 == a2 && b1 == b2 && c1 == c2

instance (Text a, Text b, Text c) => Text (a, b, c) where
  str t = case t of
    (a, b, c) -> "(" ++ str a ++ ", " ++ str b ++ ", " ++ str c ++ ")"

fst (x, y) = x
snd (x, y) = y
curry f x y = f (x, y)
uncurry f p = case p of
  (x, y) -> f x y

-- Lists ----------------------------------------------------------------------

instance Eq a => Eq [a] where
  [] == []         = True
  (x:xs) == (y:ys) = x == y && xs == ys
  xs == ys         = False

instance Ord a => Ord [a] where
  [] <= ys         = True
  (x:xs) <= []     = False
  (x:xs) <= (y:ys) = x < y || (x == y && xs <= ys)

instance Text a => Text [a] where
  str xs = "[" ++ strCommaSep xs ++ "]"

strCommaSep :: Text a => [a] -> String
strCommaSep []     = ""
strCommaSep [x]    = str x
strCommaSep (x:xs) = str x ++ ", " ++ strCommaSep xs

-- Maybe / Either --------------------------------------------------------------

data Maybe a = Nothing | Just a deriving (Eq, Text)

data Either a b = Left a | Right b deriving (Eq, Text)

maybe d f Nothing  = d
maybe d f (Just x) = f x

either f g (Left x)  = f x
either f g (Right y) = g y

isJust Nothing  = False
isJust (Just x) = True

fromMaybe d Nothing  = d
fromMaybe d (Just x) = x

-- Functions ---------------------------------------------------------------------

infixr 9 .
infixr 0 $

id x = x
const x y = x
flip f x y = f y x
(.) f g x = f (g x)
($) f x = f x

seq :: a -> b -> b
seq = primForce

error :: String -> a
error = primError

undefined :: a
undefined = primError "undefined"

-- List library ---------------------------------------------------------------------

infixr 5 ++

[] ++ ys     = ys
(x:xs) ++ ys = x : (xs ++ ys)

map f []     = []
map f (x:xs) = f x : map f xs

filter p []     = []
filter p (x:xs) = if p x then x : filter p xs else filter p xs

foldr f z []     = z
foldr f z (x:xs) = f x (foldr f z xs)

foldl f z []     = z
foldl f z (x:xs) = foldl f (f z x) xs

length :: [a] -> Int
length []     = 0
length (x:xs) = 1 + length xs

null []     = True
null (x:xs) = False

reverse :: [a] -> [a]
reverse = foldl (flip (:)) []

member :: Eq a => a -> [a] -> Bool
member x []     = False
member x (y:ys) = x == y || member x ys

elem :: Eq a => a -> [a] -> Bool
elem = member

notElem :: Eq a => a -> [a] -> Bool
notElem x ys = not (elem x ys)

sum :: Num a => [a] -> a
sum []     = fromInt 0
sum (x:xs) = x + sum xs

product :: Num a => [a] -> a
product []     = fromInt 1
product (x:xs) = x * product xs

take :: Int -> [a] -> [a]
take n []     = []
take n (x:xs) = if n <= 0 then [] else x : take (n - 1) xs

drop :: Int -> [a] -> [a]
drop n []     = []
drop n (x:xs) = if n <= 0 then x : xs else drop (n - 1) xs

replicate :: Int -> a -> [a]
replicate n x = if n <= 0 then [] else x : replicate (n - 1) x

enumFromTo :: Int -> Int -> [Int]
enumFromTo a b = if a > b then [] else a : enumFromTo (a + 1) b

enumFrom :: Int -> [Int]
enumFrom a = a : enumFrom (a + 1)

zip []     ys     = []
zip (x:xs) []     = []
zip (x:xs) (y:ys) = (x, y) : zip xs ys

zipWith f []     ys     = []
zipWith f (x:xs) []     = []
zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys

unzip :: [(a, b)] -> ([a], [b])
unzip []          = ([], [])
unzip ((a, b):ps) = case unzip ps of
  (as, bs) -> (a : as, b : bs)

concat []       = []
concat (xs:xss) = xs ++ concat xss

concatMap f xs = concat (map f xs)

lookup :: Eq a => a -> [(a, b)] -> Maybe b
lookup k []            = Nothing
lookup k ((a, b):rest) = if k == a then Just b else lookup k rest

all p []     = True
all p (x:xs) = p x && all p xs

any p []     = False
any p (x:xs) = p x || any p xs

head (x:xs) = x
tail (x:xs) = xs

last [x]    = x
last (x:xs) = last xs

init [x]    = []
init (x:xs) = x : init xs

iterate f x = x : iterate f (f x)

repeat x = x : repeat x

takeWhile p []     = []
takeWhile p (x:xs) = if p x then x : takeWhile p xs else []

dropWhile p []     = []
dropWhile p (x:xs) = if p x then dropWhile p xs else x : xs

maximum :: Ord a => [a] -> a
maximum [x]    = x
maximum (x:xs) = max x (maximum xs)

minimum :: Ord a => [a] -> a
minimum [x]    = x
minimum (x:xs) = min x (minimum xs)

-- Showing values ------------------------------------------------------------------

show :: Text a => a -> String
show = str

lines :: String -> [String]
lines [] = []
lines s  = case break (\c -> c == '\n') s of
  (l, rest) -> l : case rest of
    []       -> []
    (c:rest2) -> lines rest2

break :: (a -> Bool) -> [a] -> ([a], [a])
break p []     = ([], [])
break p (x:xs) = if p x
  then ([], x : xs)
  else case break p xs of
    (as, bs) -> (x : as, bs)

words :: String -> [String]
words s = case dropWhile (\c -> c == ' ') s of
  []   -> []
  rest -> case break (\c -> c == ' ') rest of
    (w, rest2) -> w : words rest2

unlines :: [String] -> String
unlines []     = ""
unlines (l:ls) = l ++ "\n" ++ unlines ls

unwords :: [String] -> String
unwords []     = ""
unwords [w]    = w
unwords (w:ws) = w ++ " " ++ unwords ws

-- Sorting ------------------------------------------------------------------

insertBy :: (a -> a -> Bool) -> a -> [a] -> [a]
insertBy le x []     = [x]
insertBy le x (y:ys) = if le x y then x : y : ys else y : insertBy le x ys

sortBy :: (a -> a -> Bool) -> [a] -> [a]
sortBy le []     = []
sortBy le (x:xs) = insertBy le x (sortBy le xs)

sort :: Ord a => [a] -> [a]
sort = sortBy (<=)

-- More list functions ---------------------------------------------------------

span :: (a -> Bool) -> [a] -> ([a], [a])
span p xs = (takeWhile p xs, dropWhile p xs)

splitAt :: Int -> [a] -> ([a], [a])
splitAt n xs = (take n xs, drop n xs)

and :: [Bool] -> Bool
and = foldr (&&) True

or :: [Bool] -> Bool
or = foldr (||) False

zip3 :: [a] -> [b] -> [c] -> [(a, b, c)]
zip3 (x:xs) (y:ys) (z:zs) = (x, y, z) : zip3 xs ys zs
zip3 xs ys zs             = []

nub :: Eq a => [a] -> [a]
nub []     = []
nub (x:xs) = x : nub (filter (\y -> y /= x) xs)

delete :: Eq a => a -> [a] -> [a]
delete x []     = []
delete x (y:ys) = if x == y then ys else y : delete x ys

foldr1 :: (a -> a -> a) -> [a] -> a
foldr1 f [x]    = x
foldr1 f (x:xs) = f x (foldr1 f xs)

foldl1 :: (a -> a -> a) -> [a] -> a
foldl1 f (x:xs) = foldl f x xs

intersperse :: a -> [a] -> [a]
intersperse sep []     = []
intersperse sep [x]    = [x]
intersperse sep (x:xs) = x : sep : intersperse sep xs

until :: (a -> Bool) -> (a -> a) -> a -> a
until p f x = if p x then x else until p f (f x)

gcd :: Int -> Int -> Int
gcd a 0 = abs a
gcd a b = gcd b (mod a b)

lcm :: Int -> Int -> Int
lcm a 0 = 0
lcm a b = div (abs (a * b)) (gcd a b)
|prelude}
