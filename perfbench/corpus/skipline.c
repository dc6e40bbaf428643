/* The paper's running example: Fig. 3 (SkipLine and the toy main) with the
   Fig. 4 contract. CSSV verifies SkipLine with no false alarms and reports
   exactly one message: the off-by-one at the second SkipLine call in main
   (Fig. 8). */

#define SIZE 1024

void SkipLine(int NbLine, char **PtrEndText)
    requires (is_within_bounds(*PtrEndText) &&
              alloc(*PtrEndText) > NbLine && NbLine >= 0)
    modifies (*PtrEndText), (is_nullt(*PtrEndText)), (strlen(*PtrEndText))
    ensures (is_nullt(*PtrEndText) && strlen(*PtrEndText) == 0 &&
             *PtrEndText == pre(*PtrEndText) + NbLine)
{
    int indice;
    char *PtrEndLoc;

    indice = 0;
begin_loop:
    if (indice >= NbLine) goto end_loop;
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\n';
    *PtrEndText = PtrEndLoc + 1;
    indice = indice + 1;
    goto begin_loop;
end_loop:
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\0';
}

void main() {
    char buf[SIZE];
    char *r;
    char *s;
    int n;

    r = buf;
    SkipLine(1, &r);
    fgets(r, SIZE - 1, 0);
    n = strlen(r);
    s = r + n;
    SkipLine(1, &s);
}
