package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// probe is a value with every kind of read the reader offers: strings,
// numbers of both kinds, a slice of structs and a slice of integers.
type probe struct {
	Name  string   `json:"name"`
	Rate  float64  `json:"rate"`
	Count int64    `json:"count"`
	Items []item   `json:"items"`
	IDs   []idType `json:"ids"`
}

type item struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

type idType int

var (
	probeObject = Struct{Type: "jsonread.probe", Fields: []string{"name", "rate", "count", "items", "ids"}}
	itemObject  = Struct{Type: "jsonread.item", Fields: []string{"key", "val"}}
)

func (p *probe) ReadJSON(r *Reader) {
	r.Object(&probeObject, func(i int) {
		switch i {
		case 0:
			r.String(&p.Name)
		case 1:
			r.Float(&p.Rate)
		case 2:
			Int(r, "int64", &p.Count)
		case 3:
			Slice(r, "[]jsonread.item", &p.Items, func(it *item) {
				r.Object(&itemObject, func(i int) {
					if i == 0 {
						r.String(&it.Key)
					} else {
						r.Float(&it.Val)
					}
				})
			})
		case 4:
			Slice(r, "[]jsonread.idType", &p.IDs, func(id *idType) { Int(r, "jsonread.idType", id) })
		}
	})
}

// oracle decodes data as strictly with encoding/json.
func oracle(data []byte) (probe, error) {
	var p probe
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return p, err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return p, errors.New("unexpected data after JSON body")
	}
	return p, nil
}

func check(t *testing.T, what string, data []byte, got probe, err error) {
	t.Helper()
	want, wantErr := oracle(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || err == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s %.60q: got %+v, %v; encoding/json %+v, %v", what, data, got, err, want, wantErr)
	}
}

var documents = []string{
	`{"name":"a","rate":1.5,"count":3,"items":[{"key":"k","val":2}],"ids":[1,2,3]}`,
	`{"items":[{"key":"a","val":1},{"key":"b","val":2}],"items":[{"key":"c"}]}`,
	`{"ids":[1,2,3],"ids":[],"name":"é😀"}`,
	`{"count":1.5}`, `{"count":"1"}`, `{"rate":1e400}`, `{"items":[1]}`, `{"ids":{}}`, `{"Items":[{"KEY":"x"}]}`,
	`{"name":"a"`, `{"name":"a"}}`, `{"name":"a"} `, ``, `nul`, `{"a":[[[]]]}`,
}

// TestDecodeEqualsEncodingJSON: the documents decode as encoding/json
// decodes them, from a byte slice and from a body arriving a byte, or
// half a buffer, at a time.
func TestDecodeEqualsEncodingJSON(t *testing.T) {
	long := `{"name":"` + strings.Repeat("x", 5000) + `","ids":[` + strings.Repeat("7,", 2000) + `7]}`
	for _, doc := range append(documents, long) {
		data := []byte(doc)
		var p probe
		check(t, "Decode", data, p, Decode(data, &p))
		for _, rd := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader, iotest.DataErrReader} {
			var q probe
			check(t, "DecodeReader", data, q, DecodeReader(rd(bytes.NewReader(data)), &q))
		}
	}
}

// TestDepthLimitEqualsEncodingJSON: nesting is limited where
// encoding/json limits it, with its error.
func TestDepthLimitEqualsEncodingJSON(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		data := []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
		var p probe
		check(t, "Decode", data, p, Decode(data, &p))
	}
}

// TestReadErrorsPassThrough: a body that fails to read is that error.
func TestReadErrorsPassThrough(t *testing.T) {
	boom := errors.New("boom")
	var p probe
	if err := DecodeReader(iotest.ErrReader(boom), &p); err != boom {
		t.Fatalf("DecodeReader over a failing body: %v, want %v", err, boom)
	}
}

// TestStringsOwnTheirBytes: the strings the reader hands out, interned
// or not, survive the document's buffer being reused.
func TestStringsOwnTheirBytes(t *testing.T) {
	data := []byte(`{"name":"firewall","items":[{"key":"a-key-longer-than-the-intern-bound"}]}`)
	var p probe
	if err := Decode(data, &p); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'z'
	}
	if p.Name != "firewall" || p.Items[0].Key != "a-key-longer-than-the-intern-bound" {
		t.Fatalf("decoded strings changed with the buffer: %+v", p)
	}
}

// TestSliceIsExactLength: an array longer than the slice's capacity is
// read into one array of its exact length, and one within it into the
// slice's own array; either way an element the array does not overwrite
// keeps what it held, as encoding/json leaves it.
func TestSliceIsExactLength(t *testing.T) {
	for n := 0; n <= 40; n++ {
		ids := make([]string, n)
		items := make([]string, n)
		for i := range ids {
			ids[i] = strconv.Itoa(i)
			items[i] = `{"val":` + ids[i] + `}`
		}
		data := []byte(`{"ids":[` + strings.Join(ids, ",") + `],"items":[` + strings.Join(items, ",") + `]}`)
		for _, old := range []int{0, 1, n / 2, n, n + 3} {
			prior := probe{Items: make([]item, old, old+1), IDs: make([]idType, 0, old)}
			for i := range prior.Items {
				prior.Items[i].Key = "old"
			}
			got, want := prior, prior
			got.Items, want.Items = slices.Clone(prior.Items), slices.Clone(prior.Items)
			itemsCap := cap(got.Items)
			if err := Decode(data, &got); err != nil {
				t.Fatalf("%d elements over %d: %v", n, old, err)
			}
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d elements over %d: got %+v, encoding/json %+v", n, old, got, want)
			}
			if fresh := n > cap(prior.IDs); fresh && cap(got.IDs) != n {
				t.Errorf("%d ids over capacity %d: read into capacity %d", n, cap(prior.IDs), cap(got.IDs))
			} else if !fresh && n > 0 && &got.IDs[:1][0] != &prior.IDs[:1][0] {
				t.Errorf("%d ids within capacity %d: not read into the slice's own array", n, cap(prior.IDs))
			}
			if n > itemsCap && cap(got.Items) != n {
				t.Errorf("%d items over capacity %d: read into capacity %d", n, itemsCap, cap(got.Items))
			}
		}
	}
}
