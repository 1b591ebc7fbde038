package trace

import "time"

// record is a span as operation buffers and the store hold it: 88 bytes
// against Span's 184. The trace ID is the trace's (kept once per trace),
// times are int64 nanoseconds, the kind and a request's method are
// indexes, and the fields most spans leave empty sit behind one pointer.
type record struct {
	id, parent SpanID
	name       string // with method set, the request path
	start      int64  // Unix ns
	dur        int64  // ns
	attrs      []Attr
	more       *recordMore // nil unless one of its fields is set
	dep        int32
	kind       kindID
	method     methodID // a server request's method; 0 when name is whole
}

// recordMore holds what few spans carry: an error, links, and the values
// that do not fit the record's small fields.
type recordMore struct {
	err   string
	links []string
	kind  string // a kind outside the package's constants (kind is kindOther)
	dep   int    // a deployment ID outside int32 (dep is 0)
}

type kindID uint8

const (
	kindOther kindID = iota // the kind string is in recordMore
	kindHTTP
	kindProvision
	kindDelete
	kindRepair
	kindBatch
	kindOptimizer
	kindStage
)

var kindNames = [...]string{"", KindHTTP, KindProvision, KindDelete, KindRepair, KindBatch, KindOptimizer, KindStage}

func kindOf(k string) kindID {
	switch k {
	case KindHTTP:
		return kindHTTP
	case KindProvision:
		return kindProvision
	case KindDelete:
		return kindDelete
	case KindRepair:
		return kindRepair
	case KindBatch:
		return kindBatch
	case KindOptimizer:
		return kindOptimizer
	case KindStage:
		return kindStage
	}
	return kindOther
}

type methodID uint8

var methodNames = [...]string{"", "GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"}

func methodOf(m string) methodID {
	for i := 1; i < len(methodNames); i++ {
		if methodNames[i] == m {
			return methodID(i)
		}
	}
	return 0
}

// newRecord builds the record of a span with the given fields; the rest
// of the record is left for the caller.
func newRecord(id, parent SpanID, name, kind string, start time.Time, d time.Duration, err string) record {
	r := record{id: id, parent: parent, name: name, start: start.UnixNano(), dur: int64(d), kind: kindOf(kind)}
	if r.kind == kindOther {
		r.extra().kind = kind
	}
	if err != "" {
		r.extra().err = err
	}
	return r
}

// toRecord is the record of sp.
func toRecord(sp *Span) record {
	r := newRecord(sp.SpanID, sp.Parent, sp.Name, sp.Kind, sp.Start, sp.End.Sub(sp.Start), sp.Err)
	r.attrs = sp.Attrs
	if len(sp.Links) > 0 {
		r.extra().links = sp.Links
	}
	if d := int32(sp.Dep); int(d) == sp.Dep {
		r.dep = d
	} else {
		r.extra().dep = sp.Dep
	}
	return r
}

func (r *record) extra() *recordMore {
	if r.more == nil {
		r.more = new(recordMore)
	}
	return r.more
}

func (r *record) kindName() string {
	if r.kind == kindOther {
		return r.more.kind
	}
	return kindNames[r.kind]
}

func (r *record) err() string {
	if r.more == nil {
		return ""
	}
	return r.more.err
}

func (r *record) depID() int {
	if r.more != nil && r.more.dep != 0 {
		return r.more.dep
	}
	return int(r.dep)
}

// fullName is the span's name: a server request's is built here, on
// read, from its method and path.
func (r *record) fullName() string {
	if r.method == 0 {
		return r.name
	}
	return methodNames[r.method] + " " + r.name
}

// span expands the record back to the Span it was made from.
func (r *record) span(traceID string) Span {
	start := time.Unix(0, r.start)
	sp := Span{
		TraceID: traceID,
		SpanID:  r.id,
		Parent:  r.parent,
		Name:    r.fullName(),
		Kind:    r.kindName(),
		Start:   start,
		End:     start.Add(time.Duration(r.dur)),
		Dep:     r.depID(),
		Attrs:   r.attrs,
	}
	if r.more != nil {
		sp.Err, sp.Links = r.more.err, r.more.links
	}
	return sp
}
