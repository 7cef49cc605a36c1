package dataset

import (
	"bufio"
	"bytes"
	"os"
	"strings"
)

// ReadPath loads a dataset file into a repository, dispatching on
// content and extension. Files that begin with the EPFB magic load
// through ReadColumnsBytes (record v1 or sectioned v2) straight into a
// column-backed repository — result views materialize lazily.
// Otherwise a ".json" suffix selects the JSON codec and anything else
// the CSV codec, the convention the CLIs shared individually before
// this helper existed.
func ReadPath(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, _ := br.Peek(len(binaryMagic))
	if bytes.Equal(head, binaryMagic[:]) {
		// Binary corpora are decoded from memory, read into a buffer
		// pre-sized from the file length.
		size := 0
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			size = int(st.Size())
		}
		data, err := readAllSized(br, size)
		if err != nil {
			return nil, err
		}
		cs, err := ReadColumnsBytes(data)
		if err != nil {
			return nil, err
		}
		return NewColumnRepository(cs), nil
	}
	var results []*Result
	if strings.HasSuffix(path, ".json") {
		results, err = ReadJSON(br)
	} else {
		results, err = ReadCSV(br)
	}
	if err != nil {
		return nil, err
	}
	return NewRepository(results), nil
}
